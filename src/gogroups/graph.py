"""Finite abstract graphs: directed half-edges with a fixed-point-free
involution and an origin map.

Each undirected edge is a bar-pair {e, bar(e)}; an EdgeOrbit fixes the
orientation used for presentation letters (lexicographically least id).
All values are immutable after construction and all deterministic choices
sort lexicographically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType

from .errors import InvalidStructure, LoopContraction


@dataclass(frozen=True)
class AbstractGraph:
    vertices: frozenset
    edges: frozenset
    bar: "MappingProxyType"
    d0: "MappingProxyType"

    @classmethod
    def make(cls, vertices, bar, d0) -> "AbstractGraph":
        bar = dict(bar)
        d0 = dict(d0)
        return cls(
            vertices=frozenset(vertices),
            edges=frozenset(bar),
            bar=MappingProxyType(bar),
            d0=MappingProxyType(d0),
        )

    def terminus(self, e: str) -> str:
        """Endpoint reached by traversing e: d0(bar(e))."""
        return self.d0[self.bar[e]]

    def is_loop(self, e: str) -> bool:
        return self.d0[e] == self.terminus(e)

    def out_edges(self, v: str) -> list:
        return sorted(e for e in self.edges if self.d0[e] == v)


@dataclass(frozen=True, order=True)
class EdgeOrbit:
    """A bar-pair with its canonical orientation (plus = least edge id)."""

    plus: str
    minus: str

    @classmethod
    def of(cls, g: AbstractGraph, e: str) -> "EdgeOrbit":
        pair = sorted((e, g.bar[e]))
        return cls(plus=pair[0], minus=pair[1])


def orbits(g: AbstractGraph) -> list:
    """All edge orbits, sorted by their plus id."""
    return sorted({EdgeOrbit.of(g, e) for e in g.edges})


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_graph(g: AbstractGraph) -> ValidationReport:
    """Check the abstract-graph axioms plus the standing assumptions
    (finite, connected).  Violations are reported, never raised."""
    bad = []
    for e in sorted(g.edges):
        partner = g.bar.get(e)
        if partner is None:
            bad.append(f"edge {e}: involution undefined")
            continue
        if partner not in g.edges:
            bad.append(f"edge {e}: involution image {partner} is not an edge")
            continue
        if partner == e:
            bad.append(f"edge {e}: involution has fixed point")
        elif g.bar.get(partner) != e:
            bad.append(f"edge {e}: involution is not an involution")
    for e in sorted(g.edges):
        v = g.d0.get(e)
        if v is None:
            bad.append(f"edge {e}: origin undefined")
        elif v not in g.vertices:
            bad.append(f"edge {e}: origin {v} is not a vertex")
    for e in sorted(set(g.bar) - set(g.edges)):
        bad.append(f"involution defined on unknown edge {e}")
    for e in sorted(set(g.d0) - set(g.edges)):
        bad.append(f"origin defined on unknown edge {e}")

    if not g.vertices:
        bad.append("disconnected: graph has no vertices")
    elif not bad:
        root = min(g.vertices)
        for v in sorted(g.vertices - bfs_parents(g, root).keys()):
            bad.append(f"disconnected: vertex {v} unreachable from {root}")
    return ValidationReport(tuple(bad))


def require_valid(g: AbstractGraph) -> None:
    report = validate_graph(g)
    if not report.ok:
        raise InvalidStructure("; ".join(report.violations))


def bfs_parents(g: AbstractGraph, root: str, edges=None) -> dict:
    """Breadth-first search from root, exploring each vertex's half-edges
    in lexicographic order, restricted to ``edges`` when given.  Returns
    {vertex: half-edge it was first entered by} for every reached vertex,
    in discovery order; the root maps to None.  Needs no valid graph."""
    parent = {root: None}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for e in g.out_edges(v):
            w = g.terminus(e)
            if w not in parent and (edges is None or e in edges):
                parent[w] = e
                queue.append(w)
    return parent


def spanning_tree(g: AbstractGraph) -> frozenset:
    """Deterministic spanning tree: breadth-first from the least vertex,
    exploring half-edges in lexicographic order.  Returns edge orbits."""
    require_valid(g)
    entering = bfs_parents(g, min(g.vertices)).values()
    return frozenset(EdgeOrbit.of(g, e) for e in entering if e is not None)


def contract_edge_graph(g: AbstractGraph, e: str):
    """Contract the non-loop edge e: remove {e, bar(e)}, merge d0(e) into
    d0(bar(e)).  Returns (contracted graph, vertex-merge map)."""
    require_valid(g)
    if e not in g.edges:
        raise InvalidStructure(f"no edge {e}")
    if g.is_loop(e):
        raise LoopContraction(f"edge {e} is a loop")
    u = g.d0[e]
    v = g.terminus(e)
    merge = {w: (v if w == u else w) for w in g.vertices}
    dropped = {e, g.bar[e]}
    kept = g.edges - dropped
    return (
        AbstractGraph.make(
            vertices=g.vertices - {u},
            bar={x: g.bar[x] for x in kept},
            d0={x: merge[g.d0[x]] for x in kept},
        ),
        merge,
    )
