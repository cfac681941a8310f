"""Seeded benchmark of docgraph: index, load, graph queries and BM25.

Run from the repository root:

    python3 perfbench/run.py --workload keyword-ontology --seed 888 --seconds 50 --trace 0

Workloads are ``cold-evaluate``, ``keyword-ontology`` and ``triple-bm25``
(see workloads.py); BENCHMARK.json gates the first two. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs every operation
untraced and then traced, and reports the per-layer metrics with a
self-time table. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Exit status: 0 when every check passed, 1 when an output or
input check failed, 2 when the checkout lacks docgraph's sources.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from spans import Tracer, layer_table, percentile, untraced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = ("cold-evaluate", "keyword-ontology", "triple-bm25")
# Index builds and loads per run, one at the start of each equal slot.
SAMPLES = 3
# Per-layer times that only cold-evaluate and triple-bm25 exercise. They are
# printed but kept out of the JSON, where they would read 0 on every
# keyword-ontology run.
PRINTED_ONLY = ("bm25.rerank_ms", "bm25.retrieve_ms", "evaluation.evaluate_ms")
SOURCES = (ROOT / "src" / "docgraph" / "__init__.py", ROOT / "tests" / "randgen.py")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=EXPECTED["seed"])
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_op(workload, i, item):
    """Run one operation untraced; returns (ms, pinned digest, compared digest)."""
    started = perf_counter()
    out = workload.run(untraced, i, item)
    elapsed_ms = (perf_counter() - started) * 1000.0
    return (elapsed_ms, *workload.check(i, item, out))


def trace_op(workload, tracer, i, item):
    """Run one operation traced; returns (compared digest, counts)."""
    with tracer.request(workload.root, f"op-{i}"):
        out = workload.traced(tracer.call, i, item)
    return workload.check(i, item, out)[1], workload.counts(out)


def run_schedule(workload, seconds, tracer, sample):
    """Split ``seconds`` into SAMPLES equal slots. Each slot starts with
    ``sample()`` (one index build and one load) and fills the rest with
    the closed loop. Returns the loop's tallies.

    So every timing metric draws on the whole run, not on one part of it:
    the machine is shared, and its speed drifts over tens of seconds. Each
    slot runs at least one operation, and the last one also finishes the
    pinned prefix and the last round. In a traced run every operation also
    runs traced; odd operations run the traced copy first, so neither copy
    always finds warm caches.
    """
    tally = {"latencies": [], "attempted": 0, "failed": 0, "pinned": [],
             "counts": Counter(), "all_counts": Counter()}
    stream = workload.stream()
    started = perf_counter()
    i = 0
    for slot in range(SAMPLES):
        sample()
        deadline = started + seconds * (slot + 1) / SAMPLES
        last = slot == SAMPLES - 1
        first = i
        while i == first or perf_counter() < deadline or (
                last and (i < workload.pinned_ops or i % workload.round)):
            item = next(stream)
            tally["attempted"] += 1
            pinned = "failed"
            try:
                if tracer is None:
                    elapsed_ms, pinned, _ = time_op(workload, i, item)
                else:
                    if i % 2:
                        traced, counts = trace_op(workload, tracer, i, item)
                        elapsed_ms, pinned, compared = time_op(workload, i, item)
                    else:
                        elapsed_ms, pinned, compared = time_op(workload, i, item)
                        traced, counts = trace_op(workload, tracer, i, item)
                    if traced != compared:
                        raise AssertionError("traced and untraced outputs differ")
                    tally["all_counts"] += counts
                    if i < workload.pinned_ops:
                        tally["counts"] += counts
                tally["latencies"].append(elapsed_ms)
            except Exception as exc:  # noqa: BLE001 - count it and keep measuring
                tally["failed"] += 1
                pinned = "failed"
                if tally["failed"] <= 3:
                    print(f"# operation {i} failed: {exc!r}", file=sys.stderr)
                    traceback.print_exc(file=sys.stderr)
            if i < workload.pinned_ops:
                tally["pinned"].append(pinned)
            i += 1
    return tally


def end_to_end(tally, figures) -> dict:
    latencies = tally["latencies"]
    return {
        "setup_s": (statistics.median(figures["setups"]), "s"),
        "index_s": (statistics.median(figures["index_times"]), "s"),
        "index_bytes_per_corpus_byte": (figures["index_bytes"] / figures["corpus_bytes"], "B/B"),
        "op_p50_ms": (percentile(latencies, 50), "ms"),
        "op_p95_ms": (percentile(latencies, 95), "ms"),
        "ops_per_s": (len(latencies) * 1000.0 / sum(latencies) if latencies else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, tally, figures) -> dict:
    ops = tracer.self_times("op-")
    setups = tracer.self_times("setup-")
    index = tracer.self_times("index-")
    rebuild = tracer.self_times("rebuild")
    counts = tally["counts"]

    def op_ms(*names):
        n = len(tracer.requests("op-"))
        per_op = [sum(ops.get(name, [0.0] * n)[k] for name in names) for k in range(n)]
        return percentile(per_op, 50)

    def seconds(table, name):
        return statistics.median(table.get(name, [0.0])) / 1000.0

    graph_rank_s = sum(ops.get("ranker.graph_rank", [])) / 1000.0
    traced_ms = tracer.total_ms("op-")
    return {
        "corpus.ingest_s": (seconds(index, "corpus.ingest_documents"), "s"),
        "storage.save_index_s": (seconds(index, "storage.save_index"), "s"),
        "storage.bytes_written": (figures["index_bytes"], "bytes"),
        "storage.load_index_s": (seconds(setups, "storage.load_index"), "s"),
        "vocabulary.load_s": (seconds(setups, "vocabulary.load_vocabulary"), "s"),
        "ontology.load_s": (seconds(setups, "ontology.load_ontology"), "s"),
        "matcher.build_statement_index_s": (seconds(rebuild, "matcher.build_statement_index"), "s"),
        "bm25.build_text_index_s": (seconds(rebuild, "bm25.build_text_index"), "s"),
        "query.compile_ms": (op_ms("query.compile_topic", "query.translate_term_query"), "ms"),
        "ontology.expand_ms": (op_ms("ontology.expand_query_upwards"), "ms"),
        "ontology.concepts_per_query": (counts["concepts"] / max(1, counts["queries"]), "count"),
        "matcher.retrieve_ms": (op_ms("matcher.retrieve"), "ms"),
        "matcher.full_docs": (counts["full_docs"], "count"),
        "matcher.partial_docs": (counts["partial_docs"], "count"),
        "matcher.fragments": (counts["fragments"], "count"),
        "matcher.truncated_docs": (counts["truncated_docs"], "count"),
        "ranker.graph_rank_ms": (op_ms("ranker.graph_rank"), "ms"),
        "ranker.fragments_per_s": (
            tally["all_counts"]["ranked_fragments"] / graph_rank_s if graph_rank_s else 0.0, "1/s"),
        "ranker.assemble_ms": (op_ms("ranker.assemble_final_ranking"), "ms"),
        "bm25.rerank_ms": (op_ms("bm25.bm25_rerank"), "ms"),
        "bm25.retrieve_ms": (op_ms("bm25.bm25_retrieve"), "ms"),
        "bm25.postings_touched": (counts["postings_touched"], "count"),
        "evaluation.evaluate_ms": (op_ms("evaluation.evaluate"), "ms"),
        "trace.uncovered_pct": (
            100.0 * sum(ops["(uncovered)"]) / sum(traced_ms) if traced_ms else 0.0, "%"),
        "trace.overhead_pct": (
            100.0 * (sum(traced_ms) / sum(tally["latencies"]) - 1.0)
            if tally["latencies"] else 0.0, "%"),
    }


def bench(args, work: Path) -> tuple[dict, int, int, bool]:
    from inputs import digest_files, write_inputs
    from docgraph.storage import load_index
    from workloads import LOADED, WORKLOADS, build_index, rebuild, set_up

    inputs = write_inputs(work / "inputs", args.seed)
    input_digest = digest_files(list((work / "inputs").iterdir()))
    correct = True
    verdict = ""
    if args.seed == EXPECTED["seed"]:
        correct = input_digest == EXPECTED["inputs"]
        verdict = " (pinned: match)" if correct else " (pinned: MISMATCH, inputs changed)"
    print(f"# inputs seed={args.seed} sha256={input_digest}{verdict}")

    tracer = Tracer() if args.trace else None
    index_dir = work / "index"
    context = {"index_dir": index_dir, "work": work, "inputs": inputs}
    figures = {"index_times": [], "setups": []}

    def sample():
        # Drop the loaded index first, so that peak RSS never holds it
        # together with the corpus being indexed or a second loaded copy.
        for key in LOADED:
            context.pop(key, None)
        gc.collect()
        k = len(figures["setups"])
        out = index_dir if k == 0 else work / "index-again"
        figures["index_times"].append(build_index(inputs, out, tracer, f"index-{k}"))
        if k:
            shutil.rmtree(out)
        loaded, seconds = set_up(inputs, index_dir, tracer, f"setup-{k}")
        figures["setups"].append(seconds)
        if workload.keeps_index:
            context.update(loaded)

    workload = WORKLOADS[args.workload](context, args.seed)
    tally = run_schedule(workload, args.seconds, tracer, sample)
    if tracer is not None:
        rebuild(tracer, load_index(index_dir).corpus)
    figures["index_bytes"] = sum(p.stat().st_size for p in index_dir.rglob("*") if p.is_file())
    figures["corpus_bytes"] = inputs["corpus"].stat().st_size

    output_digest = hashlib.sha256("\n".join(tally["pinned"]).encode()).hexdigest()
    verdict = ""
    if args.seed == EXPECTED["seed"]:
        if output_digest == EXPECTED["outputs"][args.workload]:
            verdict = " (pinned: match)"
        else:
            verdict = " (pinned: MISMATCH, outputs changed)"
            tally["failed"] += 1
    print(f"# outputs sha256={output_digest} over the first {len(tally['pinned'])} "
          f"operations{verdict}")

    latencies = tally["latencies"]
    print("# index seconds " + " ".join(f"{s:.3f}" for s in figures["index_times"])
          + "; set-up seconds " + " ".join(f"{s:.3f}" for s in figures["setups"]))
    print(f"# {len(latencies)} operations timed: p50 {percentile(latencies, 50):.4f} ms, "
          f"p95 {percentile(latencies, 95):.4f} ms, p99 {percentile(latencies, 99):.4f} ms "
          f"({len(latencies) // 100} above p99)")
    if tracer is None:
        metrics = end_to_end(tally, figures)
    else:
        metrics = per_layer(tracer, tally, figures)
        for row in layer_table(tracer, "op-"):
            print(row)
        print(f"# tracing overhead {metrics['trace.overhead_pct'][0]:.2f}% "
              f"(base = {sum(latencies):.1f} ms untraced time of the same "
              f"{len(latencies)} operations)")
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    for name, (value, unit) in list(metrics.items()):
        print(f"{name:<34}{value:>18.6g} {unit}")
        if name in PRINTED_ONLY:
            del metrics[name]
    correct = correct and tally["failed"] == 0
    return metrics, tally["attempted"], tally["failed"], correct


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in SOURCES if not p.is_file()]
    if missing:
        print(f"perfbench: not a docgraph checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    os.environ.pop("DOCGRAPH_PARALLELISM", None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    print(f"# env cpus={os.cpu_count()} python={platform.python_version()} "
          f"platform={platform.platform()} workload={args.workload} seconds={args.seconds} "
          f"trace={args.trace}; one process, no threads, DOCGRAPH_PARALLELISM unset")
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as tmp:
        metrics, attempted, failed, correct = bench(args, Path(tmp))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
