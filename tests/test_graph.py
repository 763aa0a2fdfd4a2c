import itertools
import time
from types import MappingProxyType

import pytest

from gogroups.errors import InvalidStructure, LoopContraction
from gogroups.graph import (
    AbstractGraph,
    EdgeOrbit,
    contract_edge_graph,
    orbits,
    spanning_tree,
    validate_graph,
)


def undirected(edge_pairs, vertices):
    """Build the half-edge structure from undirected (u, v) pairs."""
    bar, d0 = {}, {}
    for k, (u, v) in enumerate(edge_pairs):
        a, b = f"e{k}", f"e{k}^-1"
        bar[a], bar[b] = b, a
        d0[a], d0[b] = u, v
    return AbstractGraph.make(vertices, bar, d0)


def test_single_vertex_no_edges_is_valid():
    g = AbstractGraph.make(["v"], {}, {})
    assert validate_graph(g).ok


def test_fixed_point_involution_is_reported():
    g = AbstractGraph.make(["v"], {"e": "e"}, {"e": "v"})
    report = validate_graph(g)
    assert not report.ok
    assert any("fixed point" in msg for msg in report.violations)


def test_two_isolated_vertices_disconnected():
    g = AbstractGraph.make(["u", "v"], {}, {})
    report = validate_graph(g)
    assert any("disconnected" in msg for msg in report.violations)


def test_edges_come_in_bar_pairs():
    g = undirected([("u", "v"), ("v", "w")], ["u", "v", "w"])
    assert validate_graph(g).ok
    assert 2 * len(orbits(g)) == len(g.edges)


def test_loop_never_in_spanning_tree():
    g = AbstractGraph.make(["v"], {"t": "t^-1", "t^-1": "t"}, {"t": "v", "t^-1": "v"})
    assert spanning_tree(g) == frozenset()


def test_path_tree_is_whole_path():
    g = undirected([("u", "v"), ("v", "w")], ["u", "v", "w"])
    assert spanning_tree(g) == frozenset(orbits(g))


def test_triangle_tree_has_two_of_three_orbits():
    g = undirected([("u", "v"), ("v", "w"), ("w", "u")], ["u", "v", "w"])
    tree = spanning_tree(g)
    assert len(tree) == 2
    assert tree < set(orbits(g))


def test_tree_size_on_all_small_connected_graphs():
    # brute force over every simple graph on <= 4 labeled vertices
    for n in range(1, 5):
        vertices = [f"v{i}" for i in range(n)]
        possible = list(itertools.combinations(vertices, 2))
        for mask in range(2 ** len(possible)):
            pairs = [possible[i] for i in range(len(possible)) if mask >> i & 1]
            g = undirected(pairs, vertices)
            if not validate_graph(g).ok:
                continue
            tree = spanning_tree(g)
            assert len(tree) == n - 1
            assert all(not g.is_loop(o.plus) for o in tree)


def test_spanning_tree_deterministic():
    g = undirected([("u", "v"), ("v", "w"), ("w", "u")], ["u", "v", "w"])
    assert spanning_tree(g) == spanning_tree(g)


def test_contract_path_edge():
    g = undirected([("u", "v")], ["u", "v"])
    contracted, merge = contract_edge_graph(g, "e0")
    assert contracted.vertices == frozenset(["v"])
    assert contracted.edges == frozenset()
    assert merge["u"] == "v" and merge["v"] == "v"


def test_contract_triangle_edge_leaves_parallel_pair():
    g = undirected([("u", "v"), ("v", "w"), ("w", "u")], ["u", "v", "w"])
    contracted, _ = contract_edge_graph(g, "e0")
    assert len(contracted.vertices) == 2
    assert len(orbits(contracted)) == 2
    assert validate_graph(contracted).ok
    # both remaining orbits now join the same two vertices
    ends = {frozenset((contracted.d0[o.plus], contracted.terminus(o.plus))) for o in orbits(contracted)}
    assert ends == {frozenset(("v", "w"))}


def test_contract_loop_raises():
    g = AbstractGraph.make(["v"], {"t": "t^-1", "t^-1": "t"}, {"t": "v", "t^-1": "v"})
    with pytest.raises(LoopContraction):
        contract_edge_graph(g, "t")


def test_contraction_preserves_connectivity_and_counts():
    g = undirected([("u", "v"), ("v", "w"), ("w", "u"), ("w", "x")], ["u", "v", "w", "x"])
    contracted, _ = contract_edge_graph(g, "e1")
    assert validate_graph(contracted).ok
    assert len(contracted.vertices) == len(g.vertices) - 1


def test_orbit_orientation_is_lexicographically_least():
    g = undirected([("u", "v")], ["u", "v"])
    o = EdgeOrbit.of(g, "e0^-1")
    assert o.plus == "e0" and o.minus == "e0^-1"


def test_out_edges_are_sorted_per_vertex():
    g = undirected([("u", "v"), ("v", "w"), ("w", "u"), ("v", "v")], ["u", "v", "w", "x"])
    assert g.out_edges("v") == ("e0^-1", "e1", "e3", "e3^-1")
    assert g.out_edges("x") == ()


def test_broken_graph_reports_violations_without_a_search():
    # a dangling origin would break a search; validation reports it instead
    g = AbstractGraph.make(["u", "v"], {"e": "f", "f": "e"}, {"e": "u", "f": "w"})
    assert validate_graph(g).violations == ("edge f: origin w is not a vertex",)


def test_long_path_validates_in_linear_time():
    # a BFS that rescans every half-edge per vertex took about 0.8 s at
    # 2000 vertices and grows quadratically
    n = 5000
    g = undirected([(f"v{k}", f"v{k + 1}") for k in range(n - 1)], [f"v{k}" for k in range(n)])
    start = time.perf_counter()
    assert validate_graph(g).ok
    assert len(spanning_tree(g)) == n - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"validation took {elapsed:.2f} s"


def _direct(vertices, edges, bar, d0):
    """An AbstractGraph built field by field, past ``make``'s edges = bar keys."""
    return AbstractGraph(frozenset(vertices), frozenset(edges), MappingProxyType(bar), MappingProxyType(d0))


@pytest.mark.parametrize("graph, violations", [
    (_direct({"v"}, {"e"}, {}, {"e": "v"}), ("edge e: involution undefined",)),
    (AbstractGraph.make({"v"}, {"e": "x"}, {"e": "v"}), ("edge e: involution image x is not an edge",)),
    (AbstractGraph.make({"v"}, {"e": "e"}, {"e": "v"}), ("edge e: involution has fixed point",)),
    (AbstractGraph.make({"v"}, {"e": "f", "f": "g", "g": "f"}, dict.fromkeys("efg", "v")),
     ("edge e: involution is not an involution",)),
    (AbstractGraph.make({"v"}, {"e": "f", "f": "e"}, {"e": "v"}), ("edge f: origin undefined",)),
    (_direct({"v"}, (), {"e": "e"}, {}), ("involution defined on unknown edge e",)),
    (AbstractGraph.make({"v"}, {}, {"e": "v"}), ("origin defined on unknown edge e",)),
    (AbstractGraph.make((), {}, {}), ("disconnected: graph has no vertices",)),
    (AbstractGraph.make("uvw", {}, {}),
     ("disconnected: vertex v unreachable from u", "disconnected: vertex w unreachable from u")),
])
def test_each_violation_text(graph, violations):
    assert validate_graph(graph).violations == violations


def test_contract_refuses_unknown_edges_and_invalid_graphs():
    with pytest.raises(InvalidStructure, match="^no edge x$"):
        contract_edge_graph(undirected([("u", "v")], ["u", "v"]), "x")
    with pytest.raises(InvalidStructure, match="^disconnected: vertex w unreachable from u$"):
        contract_edge_graph(undirected([("u", "v")], ["u", "v", "w"]), "e0")
