"""Subclass/superclass navigation and upward query rewriting.

The ontology is a DAG of child -> parent edges, validated acyclic on load.
Ontological similarity between a concept and one of its ancestors is the
reciprocal of the node count of the shortest upward path (a direct parent
scores 1/2), so every generalization step discounts the expanded concept.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from sys import intern
from typing import Iterable

from .errors import OntologyFormatError, read_input_text
from .query import ConceptSet, DisjunctiveQuery, ExpandedConcept, with_derived_concepts


class Ontology:
    """Immutable parent/child index over concept ids; each concept's parents
    and its children are held once, as a sorted tuple that walks read as is."""

    def __init__(self, parent_edges: Iterable[tuple[str, str]]):
        parents: dict[str, set[str]] = {}
        children: dict[str, set[str]] = {}
        for child, parent in parent_edges:
            if child == parent:
                raise OntologyFormatError(f"self-parent edge on {child!r}")
            parents.setdefault(child, set()).add(parent)
            children.setdefault(parent, set()).add(child)
        self._parents = {c: tuple(sorted(ps)) for c, ps in parents.items()}
        self._children = {p: tuple(sorted(cs)) for p, cs in children.items()}
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        # Kahn's algorithm over the child -> parent relation.
        out_degree = {node: len(ps) for node, ps in self._parents.items()}
        ready = deque(
            node
            for node in set(self._parents) | set(self._children)
            if out_degree.get(node, 0) == 0
        )
        visited = 0
        total = len(set(self._parents) | set(self._children))
        while ready:
            node = ready.popleft()
            visited += 1
            for child in self._children.get(node, ()):
                out_degree[child] -= 1
                if out_degree[child] == 0:
                    ready.append(child)
        if visited != total:
            cyclic = sorted(n for n, d in out_degree.items() if d > 0)
            raise OntologyFormatError(
                f"ontology contains a cycle involving {', '.join(cyclic[:5])}"
            )

    def superclasses(self, concept_id: str) -> frozenset[str]:
        """All direct and transitive superclasses, excluding the concept."""
        return frozenset(self.ancestor_distances(concept_id))

    def subclasses(self, concept_id: str) -> frozenset[str]:
        """All direct and transitive subclasses, excluding the concept."""
        return frozenset(self._hops(concept_id, self._children))

    def ancestor_distances(self, concept_id: str) -> dict[str, int]:
        """Shortest upward hop count to every ancestor of the concept."""
        return self._hops(concept_id, self._parents)

    @staticmethod
    def _hops(concept_id: str, links: dict[str, tuple[str, ...]]) -> dict[str, int]:
        """Breadth-first hop count to every node reachable along ``links``,
        neighbours visited in their sorted link order."""
        distances: dict[str, int] = {}
        frontier = deque((node, 1) for node in links.get(concept_id, ()))
        while frontier:
            node, hops = frontier.popleft()
            if node in distances:
                continue
            distances[node] = hops
            frontier.extend((nxt, hops + 1) for nxt in links.get(node, ()))
        return distances

    def ontological_sim(self, a: str, b: str) -> float:
        """1 for identical concepts, 1/nodes-on-shortest-upward-path to an
        ancestor, 0 when no upward path exists."""
        if a == b:
            return 1.0
        hops = self.ancestor_distances(a).get(b)
        if hops is None:
            return 0.0
        return 1.0 / (hops + 1)


def load_ontology(source: str | Path) -> Ontology:
    """Load a tab-separated ``child <TAB> parent`` edge file; concept ids
    are interned, so they are the same objects as a loaded corpus's."""
    path = Path(source)
    text = read_input_text(path, "ontology", OntologyFormatError)
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("\t")]
        if len(parts) != 2 or not all(parts):
            raise OntologyFormatError(
                f"{path}:{lineno}: expected 'child<TAB>parent', got {line!r}"
            )
        edges.append((intern(parts[0]), intern(parts[1])))
    return Ontology(edges)


def expand_concept_set_upwards(concept_set: ConceptSet, ontology: Ontology) -> ConceptSet:
    """Add each concept's superclasses, discounted by ontological similarity.

    A superclass ``hops`` steps up scores ``1 / (hops + 1)`` times its source's
    score; one reachable from several sources keeps its maximum score, and
    existing alternatives are never lowered.
    """

    def superclasses(source: ExpandedConcept):
        distances = ontology.ancestor_distances(source.concept_id)
        return (
            (ancestor, (1.0 / (hops + 1)) * source.score)
            for ancestor, hops in sorted(distances.items())
        )

    return with_derived_concepts(concept_set, superclasses, "superclass")


def expand_query_upwards(query: DisjunctiveQuery, ontology: Ontology) -> DisjunctiveQuery:
    """Rewrite every component set of a translated query with its superclasses."""
    replacements = {
        cs.node_id: expand_concept_set_upwards(cs, ontology) for cs in query.components
    }
    return query.with_component_sets(replacements)
