import difflib
import hashlib
import pathlib
import random

import pytest

import zoo
from gogroups import analysis, moves, quotients
from gogroups.analysis import recognize_abelian
from gogroups.errors import (
    GogError, InvalidStructure, LoopContraction, NotIso, OracleIncomplete, UnrepresentableImage,
)
from gogroups.gog import DiagramClass, GraphOfGroups, classify, pi1_presentation, spell_in_letters
from gogroups.gogfile import parse_gog, serialize_gog
from gogroups.graph import AbstractGraph
from gogroups.groups import FreeAbelian, Hom, cyclic_table
from gogroups.moves import (
    QuotientOracle,
    collapse_tree,
    contract_edge,
    convert_diagram,
    decompose_along_edge,
    reassemble,
)
from gogroups.quotients import (
    SmithForm,
    abelianization,
    coset_enumeration,
    exponent_matrix,
    oracle_answer,
    word_exponent_vector,
)


def sorted_presentation(p):
    return (
        tuple(sorted(l.name for l in p.generators)),
        tuple(sorted(p.relators)),
    )


class TestContractEdge:
    def test_dyadic_pair_contracts_to_single_z(self):
        g = zoo.dyadic(2)
        before = abelianization(pi1_presentation(g))
        contracted = contract_edge(g, "e1")
        assert len(contracted.graph.vertices) == 1
        assert contracted.graph.edges == frozenset()
        assert abelianization(pi1_presentation(contracted)) == before
        assert before.free_rank == 1

    def test_whisker_absorption_reroutes_loop(self):
        g = zoo.torus_whisker()
        contracted = contract_edge(g, "w")
        assert contracted.graph.vertices == frozenset(["p"])
        assert set(contracted.graph.edges) == {"t", "t^-1"}
        assert abelianization(pi1_presentation(contracted)) == abelianization(
            pi1_presentation(g)
        )

    def test_whisker_with_doubling_far_side(self):
        g = zoo.torus_whisker(back_matrix=[[2]])
        contracted = contract_edge(g, "w")
        # loop maps got composed with the doubling reroute
        assert contracted.emap["t"].data == ((2,),)
        assert contracted.emap["t^-1"].data == ((2,),)
        assert abelianization(pi1_presentation(contracted)) == abelianization(
            pi1_presentation(g)
        )

    def test_non_surjective_side_rejected(self):
        g = zoo.amalgam23()
        with pytest.raises(NotIso):
            contract_edge(g, "e")  # doubling is injective but not onto

    def test_loop_rejected(self):
        with pytest.raises(LoopContraction):
            contract_edge(zoo.torus(), "t")

    def test_unknown_edge_rejected(self):
        with pytest.raises(InvalidStructure, match="no edge f"):
            contract_edge(zoo.amalgam23(), "f")
        with pytest.raises(InvalidStructure, match="no edge orbit f"):
            decompose_along_edge(zoo.amalgam23(), "f")

    def test_base_follows_merge(self):
        g = zoo.dyadic(3)
        assert g.base == "v1"
        contracted = contract_edge(g, "e1")
        assert contracted.base == "v2"


class TestCollapseTree:
    def test_dyadic_truncations(self):
        for k in range(2, 6):
            g = zoo.dyadic(k)
            collapsed = collapse_tree(g)
            assert len(collapsed.graph.vertices) == 1
            assert collapsed.graph.edges == frozenset()
            assert abelianization(pi1_presentation(collapsed)).free_rank == 1

    def test_star_of_zs(self):
        collapsed = collapse_tree(zoo.star3())
        assert len(collapsed.graph.vertices) == 1
        assert abelianization(pi1_presentation(collapsed)).free_rank == 1

    def test_two_sided_nonisos_rejected(self):
        g = zoo.amalgam23()
        with pytest.raises(NotIso):
            collapse_tree(g)

    def test_single_vertex_is_noop(self):
        g = zoo.torus()
        collapsed = collapse_tree(g)
        assert len(collapsed.graph.vertices) == 1
        assert set(collapsed.graph.edges) == {"t", "t^-1"}


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def outcome(move, *args):
    """A move's result as its serialization and base, or its error."""
    try:
        result = move(*args)
    except GogError as exc:
        return type(exc).__name__, str(exc)
    return serialize_gog(result), result.base


def cyclic_path(n, order=6):
    """A path v0 - v1 - ... of n copies of Z/order, every edge map the
    identity table."""
    vertices = [f"v{i}" for i in range(n)]
    group = cyclic_table(order)
    ident = Hom.table(group, group, list(range(order)))
    half_edges = [(f"e{i}", vertices[i - 1], vertices[i]) for i in range(1, n)]
    return GraphOfGroups.make(
        zoo._graph(vertices, half_edges),
        dict.fromkeys(vertices, group),
        {name: group for name, _, _ in half_edges},
        {h: ident for name, _, _ in half_edges for h in (name, f"{name}^-1")},
    )


class TestOnePassCollapse:
    """collapse_tree, recognize_abelian and contract_edge against the fold
    of contract_edge kept in zoo as the reference."""

    @staticmethod
    def corpus():
        graphs = [parse_gog(p) for p in sorted(FIXTURES.glob("*.gog"))]
        graphs += zoo.graphs() + zoo.edge_map_graphs()
        graphs += [zoo.rebased(g) for g in graphs]
        graphs += [g for _, g in zoo.abel_cases()]
        rng = random.Random(26)
        graphs += [zoo.random_mixed_tree(rng, rng.randint(2, 6)) for _ in range(400)]
        return graphs

    def test_moves_match_the_reference_fold(self, monkeypatch):
        graphs = self.corpus()
        stored = errors = 0
        for g in graphs:
            collapsed = outcome(collapse_tree, g)
            assert collapsed == outcome(zoo.reference_collapse_tree, g)
            stored += g.tree is not None
            errors += collapsed[0] == "NotIso"
            for e in sorted(g.graph.edges):
                assert outcome(contract_edge, g, e) == outcome(zoo.reference_contract_edge, g, e)
        assert stored > 100 and errors > 100 and len(graphs) - errors > 100

        def verdict(g):
            try:
                return recognize_abelian(g).to_text()
            except GogError as exc:
                return type(exc).__name__, str(exc)

        free_abelian = [g for g in graphs
                        if all(isinstance(grp, FreeAbelian) for grp in g.vgroup.values())]
        assert len(free_abelian) > 30
        fresh = [(verdict(g), g) for g in free_abelian]
        monkeypatch.setattr(analysis, "collapse_tree", zoo.reference_collapse_tree)
        for text, g in fresh:
            assert text == verdict(g)

    def test_rerouting_can_make_or_break_an_isomorphism(self):
        # v0 -e1-> v1 and v0 -e2-> v2: contracting e1 reroutes e2 through
        # f_bar(e1) o f_e1^-1, which is neither onto nor one-to-one here
        z2, z3, z4, z6 = (cyclic_table(n, "c") for n in (2, 3, 4, 6))

        def star(center, ends, edges):
            vgroup = {"v0": center, "v1": ends[0], "v2": ends[1]}
            half_edges = [("e1", "v0", "v1"), ("e2", "v0", "v2")]
            emap = {}
            for (name, _, terminus), (shared, fwd, back) in zip(half_edges, edges):
                emap[name] = Hom.table(shared, center, fwd)
                emap[f"{name}^-1"] = Hom.table(shared, vgroup[terminus], back)
            return GraphOfGroups.make(zoo._graph(vgroup, half_edges), vgroup,
                                      {"e1": edges[0][0], "e2": edges[1][0]}, emap)

        # Z/2 into Z/4 twice: e2's plus side is onto Z/2, then only into Z/4
        lost = star(z2, (z4, z4), [(z2, [0, 1], [0, 2]), (z2, [0, 1], [0, 2])])
        assert outcome(collapse_tree, lost) == (
            "NotIso", "no isomorphic side on tree orbit e2; cannot collapse")
        # Z/6 onto Z/3: e2's plus side x -> 2x into Z/6 becomes onto Z/3
        gained = star(z6, (z3, z3), [(z6, range(6), [0, 1, 2, 0, 1, 2]), (z3, [0, 2, 4], [0, 0, 0])])
        collapsed = collapse_tree(gained)
        assert collapsed.graph.vertices == {"v2"} and collapsed.emap == {}
        for g in (lost, gained):
            assert outcome(collapse_tree, g) == outcome(zoo.reference_collapse_tree, g)

    def test_a_single_vertex_is_returned_as_it_is(self):
        for g in (zoo.torus(), zoo.one_vertex(cyclic_table(4))):
            assert collapse_tree(g) is g

    def test_one_graph_is_built_per_collapse(self, monkeypatch):
        built = []
        init = GraphOfGroups.__init__

        def counting(self, *args, **kw):
            built.append(self)
            init(self, *args, **kw)

        path, dyadic = cyclic_path(96), zoo.dyadic(5)
        monkeypatch.setattr(GraphOfGroups, "__init__", counting)
        collapsed = collapse_tree(path)
        assert len(built) == 1 and len(collapsed.graph.vertices) == 1
        assert collapse_tree(path) is collapsed
        assert recognize_abelian(dyadic).rank == 1
        assert collapse_tree(dyadic) is built[1]
        assert len(built) == 2


def random_iso_tree_gog(rng, finite=False):
    """Random connected graph (<= 5 vertices) whose tree maps have an
    isomorphic side; non-tree edges are loops/parallels with injective maps."""
    n = rng.randint(2, 5)
    vertices = [f"v{i}" for i in range(n)]
    half_edges = []
    # random spanning tree
    for i in range(1, n):
        j = rng.randrange(i)
        half_edges.append((f"e{i}", vertices[j], vertices[i]))
    # a few extra edges
    for k in range(rng.randint(0, 2)):
        a, b = rng.choice(vertices), rng.choice(vertices)
        half_edges.append((f"x{k}", a, b))
    bar, d0 = {}, {}
    for name, a, b in half_edges:
        bar[name], bar[f"{name}^-1"] = f"{name}^-1", name
        d0[name], d0[f"{name}^-1"] = a, b
    graph = AbstractGraph.make(vertices, bar, d0)

    if finite:
        orders = [rng.choice([2, 3, 4, 6]) for _ in range(n)]
        groups = {v: cyclic_table(orders[i], f"g{i}") for i, v in enumerate(vertices)}
        vgroup = dict(groups)
        egroup, emap = {}, {}
        for name, a, b in half_edges:
            if name.startswith("e"):
                # tree edge child side (b) carries the isomorphism: contraction
                # then removes leaves first and never destroys an iso side
                shared = cyclic_table(vgroup[b].order(), "c")
                egroup[name] = shared
                emap[f"{name}^-1"] = Hom.table(shared, vgroup[b], list(range(shared.order())))
                emap[name] = _cyclic_injection(shared, vgroup[a])
                if emap[name] is None:
                    return None
            else:
                shared = cyclic_table(1, "c")
                egroup[name] = shared
                emap[name] = Hom.table(shared, vgroup[a], [vgroup[a].id_index])
                emap[f"{name}^-1"] = Hom.table(shared, vgroup[b], [vgroup[b].id_index])
        tree = frozenset(name for name, _, _ in half_edges if name.startswith("e"))
        return GraphOfGroups.make(graph, vgroup, egroup, emap, tree=tree)

    ranks = [rng.randint(0, 3) for _ in range(n)]
    vgroup = {v: FreeAbelian(ranks[i]) for i, v in enumerate(vertices)}
    egroup, emap = {}, {}
    for name, a, b in half_edges:
        if name.startswith("e"):
            # iso side at the child vertex b, injective side at the parent
            shared = FreeAbelian(vgroup[b].rank)
            egroup[name] = shared
            emap[f"{name}^-1"] = Hom.matrix(shared, vgroup[b], _unimodular(rng, shared.rank))
            into_parent = _injective_matrix(rng, shared.rank, vgroup[a].rank)
            if into_parent is None:
                return None
            emap[name] = Hom.matrix(shared, vgroup[a], into_parent)
        else:
            shared = FreeAbelian(0)
            egroup[name] = shared
            emap[name] = Hom.matrix(shared, vgroup[a], [[] for _ in range(vgroup[a].rank)])
            emap[f"{name}^-1"] = Hom.matrix(shared, vgroup[b], [[] for _ in range(vgroup[b].rank)])
    tree = frozenset(name for name, _, _ in half_edges if name.startswith("e"))
    return GraphOfGroups.make(graph, vgroup, egroup, emap, tree=tree)


def _unimodular(rng, n):
    from gogroups.quotients import mat_identity

    m = mat_identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            k = rng.randint(-2, 2)
            for c in range(n):
                m[i][c] += k * m[j][c]
    return m


def _injective_matrix(rng, src_rank, dst_rank):
    if src_rank > dst_rank:
        return None
    from gogroups.groups import hom_is_injective

    for _ in range(30):
        m = [[rng.randint(-2, 2) for _ in range(src_rank)] for _ in range(dst_rank)]
        h = Hom.matrix(FreeAbelian(src_rank), FreeAbelian(dst_rank), m)
        if hom_is_injective(h):
            return m
    return None


def _gcdable_order(a, b):
    import math

    return math.gcd(a, b)


def _cyclic_injection(src, dst):
    """An injective hom between cyclic tables, if one exists."""
    n, m = src.order(), dst.order()
    if m % n != 0:
        return None
    step = m // n
    return Hom.table(src, dst, [(step * i) % m for i in range(n)])


class TestCollapseInvariance:
    def test_abelianization_invariant_on_random_graphs(self):
        rng = random.Random(42)
        done = 0
        while done < 40:
            g = random_iso_tree_gog(rng)
            if g is None:
                continue
            before = abelianization(pi1_presentation(g))
            collapsed = collapse_tree(g)
            assert abelianization(pi1_presentation(collapsed)) == before
            done += 1

    def test_group_order_invariant_on_finite_graphs(self):
        rng = random.Random(43)
        done = 0
        while done < 15:
            g = random_iso_tree_gog(rng, finite=True)
            if g is None:
                continue
            try:
                before = coset_enumeration(pi1_presentation(g), 10_000)
            except OracleIncomplete:
                continue
            if not before.completed:
                continue
            collapsed = collapse_tree(g)
            after = coset_enumeration(pi1_presentation(collapsed), 10_000)
            assert after.order == before.order
            done += 1


class TestConvertDiagram:
    def test_pushout46_under_enumeration(self):
        g = zoo.pushout46()
        assert classify(g) is DiagramClass.DIAGRAM
        converted = convert_diagram(g, QuotientOracle.finite_enumeration(5000))
        assert classify(converted) is DiagramClass.GRAPH_OF_GROUPS
        assert converted.vgroup["u"].order() == 2
        assert converted.vgroup["v"].order() == 6
        assert converted.egroup["e"].order() == 2
        assert coset_enumeration(pi1_presentation(converted), 5000).order == 6
        assert any("finite enumeration" in t for t in converted.provenance)

    def test_pushout46_under_abelianization_matches(self):
        g = zoo.pushout46()
        converted = convert_diagram(g, QuotientOracle.abelianization())
        assert converted.vgroup["u"].order() == 2
        assert converted.vgroup["v"].order() == 6
        assert converted.egroup["e"].order() == 2
        assert coset_enumeration(pi1_presentation(converted), 5000).order == 6
        assert any("sound iff pi1 is abelian" in t for t in converted.provenance)

    def test_already_injective_graph_is_fixed(self):
        g = zoo.finite_star()
        order_before = coset_enumeration(pi1_presentation(g), 5000).order
        converted = convert_diagram(g, QuotientOracle.finite_enumeration(5000))
        assert classify(converted) is DiagramClass.GRAPH_OF_GROUPS
        for v in g.graph.vertices:
            assert converted.vgroup[v].order() == g.vgroup[v].order()
        for p in g.egroup:
            assert converted.egroup[p].order() == g.egroup[p].order()
        assert coset_enumeration(pi1_presentation(converted), 5000).order == order_before

    def test_z3f2_under_abelianization_carries_tag(self):
        g = zoo.z3f2()
        converted = convert_diagram(g, QuotientOracle.abelianization())
        assert any("sound iff pi1 is abelian" in t for t in converted.provenance)
        assert converted.vgroup["u"] == FreeAbelian(3)
        assert converted.vgroup["v"] == FreeAbelian(0)
        for p in converted.egroup:
            assert converted.egroup[p] == FreeAbelian(0)
        assert classify(converted) is DiagramClass.GRAPH_OF_GROUPS

    def test_abelianization_exact_on_abelian_diagram(self):
        # u = Z=<a>, v = Z=<b>, edge Z with the zero map toward u: pi1 = Z
        za, zb, zc = FreeAbelian(1, ("a",)), FreeAbelian(1, ("b",)), FreeAbelian(1, ("c",))
        graph = AbstractGraph.make(["u", "v"], {"e": "e^-1", "e^-1": "e"}, {"e": "u", "e^-1": "v"})
        g = GraphOfGroups.make(
            graph,
            {"u": za, "v": zb},
            {"e": zc},
            {"e": Hom.matrix(zc, za, [[0]]), "e^-1": Hom.matrix(zc, zb, [[1]])},
        )
        assert classify(g) is DiagramClass.DIAGRAM
        converted = convert_diagram(g, QuotientOracle.abelianization(asserted_abelian=True))
        assert converted.vgroup["u"] == FreeAbelian(1)
        assert converted.vgroup["v"] == FreeAbelian(0)
        assert abelianization(pi1_presentation(converted)).free_rank == 1

    def test_free_reduction_only_on_relator_free(self):
        g = zoo.two_loop_trivial()
        converted = convert_diagram(g, QuotientOracle.free_reduction())
        assert any("no relators" in t for t in converted.provenance)
        with pytest.raises(OracleIncomplete):
            convert_diagram(zoo.pushout46(), QuotientOracle.free_reduction())

    def test_cap_exceeded_propagates(self):
        with pytest.raises(OracleIncomplete):
            convert_diagram(zoo.pushout46(), QuotientOracle.finite_enumeration(2))


class TestDecompose:
    def test_two_vertex_edge_is_amalgam(self):
        g = zoo.amalgam23()
        dec = decompose_along_edge(g, "e")
        assert dec.shape == "amalgam"
        assert [l.name for l in dec.left.generators] == ["x"]
        assert [l.name for l in dec.right.generators] == ["y"]
        assert sorted_presentation(reassemble(dec)) == sorted_presentation(
            pi1_presentation(g.replace(tree=dec.tree_used))
        )

    def test_loop_is_hnn(self):
        g = zoo.torus()
        dec = decompose_along_edge(g, "t")
        assert dec.shape == "hnn"
        assert dec.right is None
        assert sorted_presentation(reassemble(dec)) == sorted_presentation(
            pi1_presentation(g.replace(tree=dec.tree_used))
        )

    def test_triangle_nonbridge_is_hnn(self):
        # triangle of Z vertices, identity maps
        zs = {v: FreeAbelian(1, (f"z{v}",)) for v in "abc"}
        zc = FreeAbelian(1, ("c",))
        bar, d0 = {}, {}
        for name, (u, v) in [("e1", "ab"), ("e2", "bc"), ("e3", "ca")]:
            bar[name], bar[f"{name}^-1"] = f"{name}^-1", name
            d0[name], d0[f"{name}^-1"] = u, v
        graph = AbstractGraph.make(["a", "b", "c"], bar, d0)
        emap = {}
        for e in graph.edges:
            emap[e] = Hom.matrix(zc, zs[graph.d0[e]], [[1]])
        g = GraphOfGroups.make(graph, zs, {"e1": zc, "e2": zc, "e3": zc}, emap)
        dec = decompose_along_edge(g, "e2")
        assert dec.shape == "hnn"
        # the base is the path's fundamental group on all three vertices
        assert {l.name for l in dec.left.generators} >= {"za", "zb", "zc"}
        assert sorted_presentation(reassemble(dec)) == sorted_presentation(
            pi1_presentation(g.replace(tree=dec.tree_used))
        )

    def test_attaching_data_reported(self):
        g = zoo.amalgam23()
        dec = decompose_along_edge(g, "e")
        assert dec.edge_group == FreeAbelian(1)
        assert dec.attach_plus.data == ((2,),)
        assert dec.attach_minus.data == ((3,),)

    def test_finite_star_decomposition(self):
        g = zoo.finite_star()
        dec = decompose_along_edge(g, "s1")
        assert dec.shape == "amalgam"
        assert sorted_presentation(reassemble(dec)) == sorted_presentation(
            pi1_presentation(g.replace(tree=dec.tree_used))
        )


class TestConversionEdgeCases:
    def test_mixed_image_is_unrepresentable(self):
        # vertex Z^2 whose image in the abelianized pi1 is Z/2 x Z:
        # neither free abelian nor finite, so conversion must refuse
        from gogroups.errors import UnrepresentableImage

        zab = FreeAbelian(2, ("a", "b"))
        zc = FreeAbelian(1, ("c",))
        graph = AbstractGraph.make(
            ["v"], {"t": "t^-1", "t^-1": "t"}, {"t": "v", "t^-1": "v"}
        )
        g = GraphOfGroups.make(
            graph,
            {"v": zab},
            {"t": zc},
            {
                "t": Hom.matrix(zc, zab, [[2], [0]]),
                "t^-1": Hom.matrix(zc, zab, [[0], [0]]),
            },
        )
        assert classify(g) is DiagramClass.DIAGRAM
        with pytest.raises(UnrepresentableImage):
            convert_diagram(g, QuotientOracle.abelianization())

    def test_loop_diagram_under_abelianization(self):
        # a loop orbit keeps its stable letter, so pi1 is infinite and only
        # the abelianization oracle applies; here t 1 t^-1 = a kills the
        # vertex group and pi1 = Z (abelian, so the oracle is exact)
        za = FreeAbelian(1, ("a",))
        zc = FreeAbelian(1, ("c",))
        graph = AbstractGraph.make(
            ["v"], {"t": "t^-1", "t^-1": "t"}, {"t": "v", "t^-1": "v"}
        )
        g = GraphOfGroups.make(
            graph,
            {"v": za},
            {"t": zc},
            {
                "t": Hom.matrix(zc, za, [[1]]),
                "t^-1": Hom.matrix(zc, za, [[0]]),
            },
        )
        assert classify(g) is DiagramClass.DIAGRAM
        converted = convert_diagram(g, QuotientOracle.abelianization(asserted_abelian=True))
        assert converted.vgroup["v"] == FreeAbelian(0)
        assert converted.egroup["t"] == FreeAbelian(0)
        from gogroups.gog import validate_gog

        assert validate_gog(converted).ok
        assert abelianization(pi1_presentation(converted)).free_rank == 1


class TestAbelianConversionRandomized:
    def test_elimination_trees_convert_exactly(self):
        # trees where every child generator is expressed in its parent:
        # pi1 = Z^rank(root) is abelian, so the abelianization oracle is
        # exact and conversion must preserve the invariant factors
        rng = random.Random(4242)
        for _ in range(30):
            g, root_rank = zoo.random_elimination_tree(rng)
            expected = abelianization(pi1_presentation(g))
            assert expected.torsion == () and expected.free_rank == root_rank
            converted = convert_diagram(g, QuotientOracle.abelianization(asserted_abelian=True))
            assert classify(converted) is DiagramClass.GRAPH_OF_GROUPS
            assert abelianization(pi1_presentation(converted)) == expected


ABEL_DIGESTS = pathlib.Path(__file__).parent / "golden" / "abel-convert-digests.txt"


def abel_digest_line(case, d):
    """'<case>: <sha256 of the abel-converted graph's serialization>', or
    the error class and text when conversion refuses."""
    try:
        text = serialize_gog(convert_diagram(d, QuotientOracle.abelianization()))
    except GogError as exc:
        return f"{case}: {type(exc).__name__}: {exc}"
    return f"{case}: {hashlib.sha256(text.encode()).hexdigest()}"


class TestAbelianConversionDigests:
    def test_abel_convert_digests(self):
        expected = ABEL_DIGESTS.read_text().splitlines()
        got = [abel_digest_line(case, d) for case, d in zoo.abel_cases()]
        changed = [line for line in difflib.ndiff(expected, got) if line[:2] in ("- ", "+ ")]
        assert not changed, f"abel conversions differ from {ABEL_DIGESTS.name}:\n" + "\n".join(changed)


def reference_coords(image, target, relator_rows, ambient):
    """Coordinates of an ambient vector over the image's kept basis, solved
    as the conversion once did: over a second lattice, the basis beside
    every relator row, whose solution is read through a dense V."""
    cols = [list(b) for b in image.basis] + [list(r) for r in relator_rows]
    if not cols:
        if any(target):
            raise UnrepresentableImage("nonzero vector in a trivial image")
        return []
    matrix = [[c[i] for c in cols] for i in range(ambient)]
    solution = SmithForm(matrix).solve(list(target))
    if solution is None:
        raise UnrepresentableImage("vector does not lie in the expected image")
    coords = solution[: len(image.basis)]
    for i, dk in enumerate(image.torsion):
        coords[i] %= dk
    return coords


def abelian_inclusions(d):
    """(edge image, vertex image, relator rows, ambient size) for both
    sides of every orbit of d, the images built as the abel conversion
    builds them."""
    pres = pi1_presentation(d)
    rows, ambient = exponent_matrix(pres), len(pres.generators)
    vertex_letters, _ = d._naming

    def image(v, elements):
        letters = vertex_letters.get(v, ())
        vectors = [word_exponent_vector(pres, spell_in_letters(d.vgroup[v], letters, x))
                   for x in elements]
        return moves._image_in_abelianization(vectors, rows, ambient)

    vertex = {v: image(v, d.vgroup[v].generators()) for v in d.graph.vertices}
    for o in d.orbits():
        shared = d.egroup[o.plus].generators()
        edge = image(d.graph.d0[o.plus], [d.emap[o.plus].apply(c) for c in shared])
        for half in (o.plus, o.minus):
            yield edge, vertex[d.graph.d0[half]], rows, ambient


class TestAbelianImages:
    def test_coords_agree_with_the_basis_and_relator_solve(self):
        checked = 0
        for case, d in zoo.abel_cases():
            for edge, vertex, rows, ambient in abelian_inclusions(d):
                for b in edge.basis:
                    assert vertex.coords(b) == reference_coords(vertex, b, rows, ambient), case
                    checked += 1
        assert checked > 100

    def test_conversion_and_oracle_read_no_dense_v(self, monkeypatch):
        built = []

        class CountedForm(SmithForm):
            def __init__(self, m):
                super().__init__(m)
                built.append(self)

            @property
            def v(self):
                raise AssertionError("a dense V was read")

        monkeypatch.setattr(quotients, "SmithForm", CountedForm)
        oracle = QuotientOracle.abelianization()
        for d in (zoo.pushout46(), zoo.finite_star(), zoo.random_product_diagram(random.Random(3))):
            del built[:]
            convert_diagram(d, oracle)
            # one stacked and one cokernel form per image with generators
            images = sum(1 for v in d.graph.vertices if d.vgroup[v].generators())
            images += sum(1 for o in d.orbits() if d.egroup[o.plus].generators())
            assert len(built) == 2 * images
            pres = pi1_presentation(d)
            for letter in pres.generators:
                oracle_answer(oracle, pres, ((letter.name, 1),))
