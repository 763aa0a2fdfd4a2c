import pytest

import zoo
from gogroups.errors import InvalidStructure
from gogroups.gog import (
    DiagramClass,
    GraphOfGroups,
    classify,
    freely_reduce,
    invert_word,
    pi1_presentation,
    presentation_to_text,
    validate_gog,
)
from gogroups.graph import AbstractGraph
from gogroups.groups import FreeAbelian, Hom, cyclic_table
from gogroups.quotients import InvariantFactors, abelianization, coset_enumeration


def z2_star_z3():
    z2 = cyclic_table(2, "a")
    z3 = cyclic_table(3, "b")
    triv = FreeAbelian(0)
    graph = AbstractGraph.make(
        ["p", "q"], {"e": "e^-1", "e^-1": "e"}, {"e": "p", "e^-1": "q"}
    )
    return GraphOfGroups.make(
        graph,
        {"p": z2, "q": z3},
        {"e": triv},
        {"e": Hom.trivial(triv, z2), "e^-1": Hom.trivial(triv, z3)},
    )


class TestClassify:
    def test_identity_maps_give_graph_of_groups(self):
        assert classify(zoo.torus()) is DiagramClass.GRAPH_OF_GROUPS

    def test_non_injective_map_gives_diagram(self):
        assert classify(zoo.pushout46()) is DiagramClass.DIAGRAM

    def test_dyadic_truncations_are_graphs_of_groups(self):
        for k in range(2, 6):
            assert classify(zoo.dyadic(k)) is DiagramClass.GRAPH_OF_GROUPS

    def test_z3f2_is_diagram(self):
        assert classify(zoo.z3f2()) is DiagramClass.DIAGRAM


class TestValidation:
    def test_fixtures_valid(self):
        for g in [
            zoo.torus(),
            zoo.klein(),
            zoo.bs12(),
            zoo.two_loop_trivial(),
            zoo.amalgam23(),
            zoo.trefoil(),
            zoo.star3(),
            zoo.pushout46(),
            zoo.z3f2(),
            zoo.finite_star(),
            zoo.chain48(),
            zoo.klein4_star(),
        ]:
            assert validate_gog(g).ok

    def test_mismatched_edge_map_source(self):
        g = zoo.torus()
        za = FreeAbelian(1, ("a",))
        wrong = Hom.matrix(FreeAbelian(2), FreeAbelian(1), [[1, 0]])
        bad = GraphOfGroups.make(
            g.graph, dict(g.vgroup), dict(g.egroup), {"t": wrong, "t^-1": g.emap["t^-1"]}
        )
        report = validate_gog(bad)
        assert any("source differs" in v for v in report.violations)

    def test_tree_with_loop_orbit_rejected(self):
        g = zoo.torus().replace(tree=frozenset({"t"}))
        report = validate_gog(g)
        assert any("loop" in v for v in report.violations)

    def test_tree_that_does_not_span_rejected(self):
        # two parallel orbits join u and v; w is left out of the tree
        triv = FreeAbelian(0)
        graph = zoo._graph(["u", "v", "w"], [("a", "u", "v"), ("b", "u", "v"), ("c", "v", "w")])
        trivial_map = Hom.matrix(triv, triv, [])
        g = GraphOfGroups.make(
            graph,
            {v: triv for v in graph.vertices},
            {p: triv for p in ("a", "b", "c")},
            {e: trivial_map for e in graph.edges},
            tree={"a", "b"},
        )
        assert validate_gog(g).violations == ("tree does not span the graph",)
        assert validate_gog(g.replace(tree={"b", "c"})).ok

    def test_tree_with_wrong_orbit_count_rejected(self):
        g = zoo.star3().replace(tree=frozenset({"s1", "s2"}))
        assert validate_gog(g).violations == ("tree orbit count != |vertices| - 1",)

    def test_tree_entry_must_be_plus_id(self):
        g = zoo.star3().replace(tree=frozenset({"s1^-1", "s2", "s3"}))
        assert validate_gog(g).violations == ("tree entry s1^-1 is not an orbit plus id",)

    def test_ops_require_validity(self):
        g = zoo.torus().replace(base="nowhere")
        with pytest.raises(InvalidStructure):
            pi1_presentation(g)


class TestPresentation:
    def test_single_loop_trivial_vertex_is_free(self):
        triv = FreeAbelian(0)
        graph = AbstractGraph.make(["v"], {"t": "t^-1", "t^-1": "t"}, {"t": "v", "t^-1": "v"})
        g = GraphOfGroups.make(
            graph, {"v": triv}, {"t": triv}, {"t": Hom.matrix(triv, triv, []), "t^-1": Hom.matrix(triv, triv, [])}
        )
        p = pi1_presentation(g)
        assert [l.name for l in p.generators] == ["t"]
        assert p.relators == ()
        assert abelianization(p) == InvariantFactors((), 1)

    def test_torus_presentation(self):
        p = pi1_presentation(zoo.torus())
        assert [l.name for l in p.generators] == ["a", "t"]
        assert p.relators == ((("t", 1), ("a", 1), ("t", -1), ("a", -1)),)

    def test_klein_presentation(self):
        p = pi1_presentation(zoo.klein())
        assert p.relators == ((("t", 1), ("a", 1), ("t", -1), ("a", 1)),)

    def test_z2_star_z3(self):
        p = pi1_presentation(z2_star_z3())
        names = [l.name for l in p.generators]
        assert names == ["a", "b", "e"]
        assert abelianization(p) == InvariantFactors((6,), 0)

    def test_tree_letters_get_trivializing_relators(self):
        g = zoo.star3()
        p = pi1_presentation(g)
        tree_letters = {l.name for l in p.generators if l.kind == "edge"}
        killed = {rel[0][0] for rel in p.relators if len(rel) == 1}
        assert tree_letters == killed == {"s1", "s2", "s3"}

    def test_counts(self):
        # number of edge letters = orbits; trivialized ones = |V| - 1
        for g in [zoo.star3(), zoo.amalgam23(), zoo.z3f2(), zoo.two_loop_trivial()]:
            p = pi1_presentation(g)
            edge_letters = [l for l in p.generators if l.kind == "edge"]
            assert len(edge_letters) == len(g.orbits())
            killed = {rel[0][0] for rel in p.relators if len(rel) == 1}
            assert len(killed & {l.name for l in edge_letters}) == len(g.graph.vertices) - 1

    def test_z3f2_presentation(self):
        p = pi1_presentation(zoo.z3f2())
        names = [l.name for l in p.generators]
        assert names == ["a", "b", "c", "e1", "e2", "e3"]
        assert abelianization(p) == InvariantFactors((), 5)
        # the three pairwise commutators appear as relators once e1 = 1
        rels = {freely_reduce(r) for r in p.relators}
        assert (("e1", 1),) in rels
        comm = lambda x, y: ((x, 1), (y, 1), (x, -1), (y, -1))
        for x, y in [("a", "b"), ("a", "c"), ("b", "c")]:
            assert comm(x, y) in rels or invert_word(comm(x, y)) in rels

    def test_letter_collision_qualifies_names(self):
        za = FreeAbelian(1, ("a",))
        zc = FreeAbelian(1, ("c",))
        graph = AbstractGraph.make(
            ["u", "v"], {"e": "e^-1", "e^-1": "e"}, {"e": "u", "e^-1": "v"}
        )
        g = GraphOfGroups.make(
            graph,
            {"u": za, "v": FreeAbelian(1, ("a",))},
            {"e": zc},
            {"e": Hom.matrix(zc, za, [[1]]), "e^-1": Hom.matrix(zc, za, [[1]])},
        )
        p = pi1_presentation(g)
        assert [l.name for l in p.generators] == ["u.a", "v.a", "e"]

    def test_deterministic_under_insertion_order(self):
        g1 = zoo.finite_star()
        g2 = zoo.finite_star()
        # rebuild with reversed dict insertion order
        g3 = GraphOfGroups.make(
            g2.graph,
            dict(reversed(list(g2.vgroup.items()))),
            dict(reversed(list(g2.egroup.items()))),
            dict(reversed(list(g2.emap.items()))),
        )
        assert presentation_to_text(pi1_presentation(g1)) == presentation_to_text(pi1_presentation(g3))

    def test_finite_star_pi1_is_z6(self):
        p = pi1_presentation(zoo.finite_star())
        assert coset_enumeration(p, 1000).order == 6

    def test_chain48_pi1_is_z8(self):
        p = pi1_presentation(zoo.chain48())
        assert coset_enumeration(p, 1000).order == 8

    def test_klein4_star_pi1_is_klein_four(self):
        p = pi1_presentation(zoo.klein4_star())
        assert coset_enumeration(p, 1000).order == 4

    def test_pushout46_pi1_order_six(self):
        p = pi1_presentation(zoo.pushout46())
        assert coset_enumeration(p, 1000).order == 6
        assert abelianization(p) == InvariantFactors((6,), 0)

    def test_bar_side_relator_is_conjugate_inverse(self):
        # the relation family read from bar(e) is t^-1 (inverse relation) t
        for g in [zoo.torus(), zoo.klein(), zoo.amalgam23()]:
            p = pi1_presentation(g, tree=frozenset())
            for o in g.orbits():
                t = o.plus
                f_plus, f_minus = g.emap[o.plus], g.emap[o.minus]
                shared = g.egroup[o.plus]
                letters = {l.owner: l for l in p.generators if l.kind == "edge"}
                from gogroups.gog import presentation_letters, spell_in_letters

                vletters, eletters = presentation_letters(g)
                for c in shared.generators():
                    w_minus = spell_in_letters(
                        g.vgroup[g.graph.d0[o.minus]], vletters.get(g.graph.d0[o.minus], ()), f_minus.apply(c)
                    )
                    w_plus = spell_in_letters(
                        g.vgroup[g.graph.d0[o.plus]], vletters.get(g.graph.d0[o.plus], ()), f_plus.apply(c)
                    )
                    t_name = eletters[o.plus].name
                    r_plus = freely_reduce(((t_name, 1),) + w_minus + ((t_name, -1),) + invert_word(w_plus))
                    r_minus = freely_reduce(((t_name, -1),) + w_plus + ((t_name, 1),) + invert_word(w_minus))
                    conj = freely_reduce((( t_name, -1),) + invert_word(r_plus) + ((t_name, 1),))
                    assert conj == r_minus

    def test_text_serialization(self):
        text = presentation_to_text(pi1_presentation(zoo.torus()))
        assert text == "a\nt\n--\nt a t^-1 a^-1\n"


class TestLetterCollisions:
    def test_vertex_letter_colliding_with_edge_id(self):
        # a vertex generator named like the loop gets qualified; the edge
        # letter keeps the bare id
        za = FreeAbelian(1, ("t",))
        zc = FreeAbelian(1, ("c",))
        graph = AbstractGraph.make(["v"], {"t": "t^-1", "t^-1": "t"}, {"t": "v", "t^-1": "v"})
        ident = Hom.matrix(zc, za, [[1]])
        g = GraphOfGroups.make(graph, {"v": za}, {"t": zc}, {"t": ident, "t^-1": ident})
        p = pi1_presentation(g)
        assert [l.name for l in p.generators] == ["v.t", "t"]

    def test_validate_detects_wrong_target(self):
        g = zoo.amalgam23()
        zc = FreeAbelian(1, ("c",))
        swapped = GraphOfGroups.make(
            g.graph,
            dict(g.vgroup),
            dict(g.egroup),
            {"e": g.emap["e^-1"], "e^-1": g.emap["e"]},
        )
        # both maps now land on the wrong vertex group objects; the ranks
        # agree so the mismatch must be caught structurally, not by class
        report = validate_gog(swapped)
        assert report.ok  # FreeAbelian(1) == FreeAbelian(1): same shape
        bigger = GraphOfGroups.make(
            g.graph,
            {"u": FreeAbelian(2), "v": g.vgroup["v"]},
            dict(g.egroup),
            dict(g.emap),
        )
        report = validate_gog(bigger)
        assert any("target differs" in v for v in report.violations)
