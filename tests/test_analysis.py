import random

import pytest

import zoo
from gogroups import analysis, moves, words
from gogroups.analysis import product_rank_family, rank_bound, recognize_abelian
from gogroups.errors import CapExceeded, UnsupportedClass
from gogroups.gog import GraphOfGroups, pi1_presentation
from gogroups.graph import AbstractGraph
from gogroups.groups import (
    FreeAbelian,
    FreeGroup,
    Hom,
    cyclic_table,
    group_rank,
    hom_member,
)
from gogroups.moves import QuotientOracle, convert_diagram
from gogroups.quotients import abelianization
from gogroups.words import is_trivial


class TestRecognizeAbelian:
    def test_torus_is_abelian_rank_two(self):
        verdict = recognize_abelian(zoo.torus())
        assert verdict.abelian and verdict.rank == 2
        assert verdict.note == "G_v x Z"
        inv = abelianization(pi1_presentation(zoo.torus()))
        assert inv.free_rank == 2 and inv.torsion == ()

    def test_klein_witness_reduces_to_a_squared(self):
        verdict = recognize_abelian(zoo.klein())
        assert not verdict.abelian
        assert verdict.provenance == "4b"
        assert len(verdict.reduced.word) == 0
        assert verdict.reduced.word.elements == ((2,),)

    def test_bs12_nonsurjective_loop_map(self):
        verdict = recognize_abelian(zoo.bs12())
        assert not verdict.abelian
        assert verdict.provenance == "4a"
        assert len(verdict.reduced.word) >= 1

    def test_two_loops(self):
        verdict = recognize_abelian(zoo.two_loop_trivial())
        assert not verdict.abelian
        assert verdict.provenance == "3"
        assert len(verdict.reduced.word) == 4

    def test_amalgam23_tree_witness(self):
        g = zoo.amalgam23()
        verdict = recognize_abelian(g)
        assert not verdict.abelian
        assert verdict.provenance == "1"
        assert verdict.witness.elements[0] == (1,)
        assert verdict.witness.elements[1] == (1,)
        assert len(verdict.reduced.word) == 4
        # independent pinch-freeness audit: no middle element lies in the
        # incoming edge-map image (odd numbers are outside 2Z and 3Z)
        red = verdict.reduced.word
        for i, e in enumerate(red.edges[:-1]):
            if red.edges[i + 1] != g.graph.bar[e]:
                continue
            back = g.emap[g.graph.bar[e]]
            assert not hom_member(back, red.elements[i + 1]).inside

    def test_witness_fails_is_trivial(self):
        for build in (zoo.klein, zoo.bs12, zoo.two_loop_trivial, zoo.amalgam23):
            verdict = recognize_abelian(build())
            assert not is_trivial(verdict.carrier, verdict.witness)

    def test_zero_loop_case(self):
        verdict = recognize_abelian(zoo.star3())
        assert verdict.abelian and verdict.rank == 1 and verdict.note == "G_v"

    def test_dyadic_is_abelian(self):
        # truncations collapse to a bare Z vertex: rank 1, no loop survives
        verdict = recognize_abelian(zoo.dyadic(4))
        assert verdict.abelian and verdict.rank == 1

    def test_abelian_verdict_matches_abelianization(self):
        rng = random.Random(77)
        for _ in range(25):
            rank = rng.randint(0, 3)
            za = FreeAbelian(rank)
            zc = FreeAbelian(rank)
            graph = AbstractGraph.make(
                ["v"], {"t": "t^-1", "t^-1": "t"}, {"t": "v", "t^-1": "v"}
            )
            m = _random_unimodular(rng, rank)
            iso = Hom.matrix(zc, za, m)
            g = GraphOfGroups.make(
                graph, {"v": za}, {"t": zc}, {"t": iso, "t^-1": iso}
            )
            verdict = recognize_abelian(g)
            assert verdict.abelian and verdict.rank == rank + 1
            inv = abelianization(pi1_presentation(g))
            assert inv.free_rank == rank + 1 and inv.torsion == ()

    def test_single_loop_equal_isos_presentation_is_commutators(self):
        p = pi1_presentation(zoo.torus())
        for rel in p.relators:
            assert len(rel) == 4
            names = [n for n, _ in rel]
            assert names[0] == names[2] and names[1] == names[3]
            signs = [s for _, s in rel]
            assert signs in ([1, 1, -1, -1], [-1, -1, 1, 1], [1, -1, -1, 1], [-1, 1, 1, -1])

    def test_rejects_non_free_abelian(self):
        with pytest.raises(UnsupportedClass):
            recognize_abelian(zoo.finite_star())
        with pytest.raises(UnsupportedClass):
            recognize_abelian(zoo.trefoil())
        # free abelian vertices, but a free edge group
        za, f1 = FreeAbelian(1, ("a",)), FreeGroup(1)
        into = Hom.images(f1, za, [(1,)])
        with pytest.raises(UnsupportedClass, match="^edge group at orbit t is not free abelian$"):
            recognize_abelian(zoo.hnn(za, f1, into, into))

    def test_rejects_diagrams(self):
        za = FreeAbelian(1)
        zc = FreeAbelian(1)
        graph = AbstractGraph.make(["v"], {"t": "t^-1", "t^-1": "t"}, {"t": "v", "t^-1": "v"})
        g = GraphOfGroups.make(
            graph,
            {"v": za},
            {"t": zc},
            {"t": Hom.matrix(zc, za, [[0]]), "t^-1": Hom.matrix(zc, za, [[1]])},
        )
        with pytest.raises(UnsupportedClass):
            recognize_abelian(g)


def _random_unimodular(rng, n):
    from gogroups.quotients import mat_identity

    m = mat_identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n) if n else 0, rng.randrange(n) if n else 0
        if n and i != j:
            k = rng.randint(-2, 2)
            for c in range(n):
                m[i][c] += k * m[j][c]
    return m


class TestRankBound:
    def test_finite_vertices_bound_one(self):
        assert rank_bound(zoo.finite_star()) == 1

    def test_torus_bound_two_and_attained(self):
        assert rank_bound(zoo.torus()) == 2
        assert recognize_abelian(zoo.torus()).rank == 2

    def test_z3f2_bound_two_despite_z3_inside(self):
        g = zoo.z3f2()
        assert rank_bound(g) == 2
        # the diagram's pi1 is Z^3 * F2: free rank 5 abelianization
        assert abelianization(pi1_presentation(g)).free_rank == 5


class TestProductRankFamily:
    def test_elementary_abelian(self):
        g = product_rank_family(3, cyclic_table(1))
        assert g.order() == 8 and group_rank(g) == 3

    def test_base_z3_merges_one_factor(self):
        g = product_rank_family(2, cyclic_table(3))
        assert g.order() == 12
        assert group_rank(g) == 2  # Z/3 x Z/2 collapses to Z/6

    def test_m_zero(self):
        g = product_rank_family(0, cyclic_table(1))
        assert g.order() == 1 and group_rank(g) == 0

    def test_rank_at_least_m(self):
        for m in range(5):
            for base in (cyclic_table(1), cyclic_table(2), cyclic_table(3)):
                if m > 4:
                    continue
                g = product_rank_family(m, base)
                assert group_rank(g) >= m

    def test_cap(self):
        with pytest.raises(CapExceeded):
            product_rank_family(4, cyclic_table(1000))
        with pytest.raises(ValueError):
            product_rank_family(5, cyclic_table(2))


class TestCertificatesSurviveOptimize:
    """Certificate checks are explicit raises, so ``python -O`` keeps them."""

    def test_a_collapsed_witness_is_refused(self, monkeypatch):
        collapsed = words.reduce(zoo.klein(), words.identity_loop(zoo.klein()))
        monkeypatch.setattr(analysis, "reduce", lambda g, w: collapsed)
        with pytest.raises(AssertionError, match="^witness for step 4b collapsed$"):
            recognize_abelian(zoo.klein())

    def test_a_converted_edge_map_must_be_injective(self, monkeypatch):
        monkeypatch.setattr(moves, "hom_is_injective", lambda h: False)
        texts = {
            QuotientOracle.finite_enumeration(5000):
                "finite enumeration: the converted edge maps of orbit e are not both injective",
            QuotientOracle.abelianization(): "abelianization: the converted edge map of e is not injective",
        }
        for oracle, text in texts.items():
            with pytest.raises(AssertionError) as info:
                convert_diagram(zoo.pushout46(), oracle)
            assert str(info.value) == text

    def test_a_product_family_member_must_have_rank_m(self, monkeypatch):
        monkeypatch.setattr(analysis, "group_rank", lambda g: 1)
        with pytest.raises(AssertionError) as info:
            product_rank_family(2, cyclic_table(3))
        assert str(info.value) == "product family: base x (Z/2)^2 has rank below 2"
