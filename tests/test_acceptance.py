"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  All tolerances are exact; the randomized sweeps are seeded.
"""

import itertools
import pathlib
import random
import time

import zoo
from zoo import freely_reduce, invert_word
from gogroups.analysis import product_rank_family, rank_bound, recognize_abelian
from gogroups.errors import ShapeMismatch
from gogroups.gog import (
    DiagramClass,
    classify,
    pi1_presentation,
)
from gogroups.gogfile import parse_gog
from gogroups.groups import (
    Hom,
    cyclic_table,
    dihedral_table,
    direct_product,
    group_rank,
    subgroup_table,
)
from gogroups.moves import QuotientOracle, collapse_tree, convert_diagram
from gogroups.quotients import abelianization, coset_enumeration
from gogroups.words import is_trivial, word_from_presentation_letters

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load(name):
    return parse_gog(str(FIXTURES / name))


def test_criterion_1_witness_suite():
    """Four witness families reduce to pinch-free nontrivial forms."""
    expected_steps = {
        "klein.gog": "4b",
        "bs12.gog": "4a",
        "two-loop-trivial.gog": "3",
        "amalgam-2-3.gog": "1",
    }
    for name, step in expected_steps.items():
        verdict = recognize_abelian(load(name))
        assert not verdict.abelian, name
        assert verdict.provenance == step, name
        assert verdict.reduced.pinch_free
        assert not is_trivial(verdict.carrier, verdict.witness), name
        reduced = verdict.reduced.word
        nontrivial_bare = len(reduced) == 0 and not verdict.carrier.vgroup[
            reduced.base
        ].is_identity(reduced.elements[0])
        assert len(reduced) >= 1 or nontrivial_bare, name
    klein_verdict = recognize_abelian(load("klein.gog"))
    assert len(klein_verdict.reduced.word) == 0
    assert klein_verdict.reduced.word.elements == ((2,),)
    print("ACCEPTANCE 1: PASS - witnesses for steps 1/3/4a/4b all nontrivial; "
          "klein reduces to the bare element a^2")


def test_criterion_2_abelian_case():
    """Torus: Abelian(rank 2), abelianization free rank 2 with no torsion."""
    g = load("torus.gog")
    verdict = recognize_abelian(g)
    assert verdict.abelian and verdict.rank == 2 and verdict.note == "G_v x Z"
    inv = abelianization(pi1_presentation(g))
    assert inv.free_rank == 2 and inv.torsion == ()
    print("ACCEPTANCE 2: PASS - torus verdict Abelian(rank 2), abelianization Z^2")


def _random_fa_graph(rng):
    from gogroups.graph import AbstractGraph
    from gogroups.gog import GraphOfGroups
    from gogroups.groups import FreeAbelian, hom_is_injective
    from gogroups.quotients import mat_identity

    def unimodular(n):
        m = mat_identity(n)
        for _ in range(3 * n):
            i, j = (rng.randrange(n), rng.randrange(n)) if n else (0, 0)
            if n and i != j:
                k = rng.randint(-2, 2)
                for c in range(n):
                    m[i][c] += k * m[j][c]
        return m

    def injective(src_rank, dst_rank):
        if src_rank > dst_rank:
            return None
        for _ in range(40):
            m = [[rng.randint(-2, 2) for _ in range(src_rank)] for _ in range(dst_rank)]
            if hom_is_injective(Hom.matrix(FreeAbelian(src_rank), FreeAbelian(dst_rank), m)):
                return m
        return None

    n = rng.randint(2, 5)
    vertices = [f"v{i}" for i in range(n)]
    half_edges = [(f"e{i}", vertices[rng.randrange(i)], vertices[i]) for i in range(1, n)]
    for k in range(rng.randint(0, 2)):
        half_edges.append((f"x{k}", rng.choice(vertices), rng.choice(vertices)))
    bar, d0 = {}, {}
    for name, a, b in half_edges:
        bar[name], bar[f"{name}^-1"] = f"{name}^-1", name
        d0[name], d0[f"{name}^-1"] = a, b
    graph = AbstractGraph.make(vertices, bar, d0)
    vgroup = {v: FreeAbelian(rng.randint(0, 3)) for v in vertices}
    egroup, emap = {}, {}
    for name, a, b in half_edges:
        if name.startswith("e"):
            shared = FreeAbelian(vgroup[b].rank)
            into_parent = injective(shared.rank, vgroup[a].rank)
            if into_parent is None:
                return None
            egroup[name] = shared
            emap[f"{name}^-1"] = Hom.matrix(shared, vgroup[b], unimodular(shared.rank))
            emap[name] = Hom.matrix(shared, vgroup[a], into_parent)
        else:
            shared = FreeAbelian(0)
            egroup[name] = shared
            emap[name] = Hom.matrix(shared, vgroup[a], [[] for _ in range(vgroup[a].rank)])
            emap[f"{name}^-1"] = Hom.matrix(shared, vgroup[b], [[] for _ in range(vgroup[b].rank)])
    tree = frozenset(name for name, _, _ in half_edges if name.startswith("e"))
    return GraphOfGroups.make(graph, vgroup, egroup, emap, tree=tree)


def _random_ft_graph(rng):
    from gogroups.graph import AbstractGraph
    from gogroups.gog import GraphOfGroups

    n = rng.randint(2, 4)
    vertices = [f"v{i}" for i in range(n)]
    half_edges = [(f"e{i}", vertices[rng.randrange(i)], vertices[i]) for i in range(1, n)]
    bar, d0 = {}, {}
    for name, a, b in half_edges:
        bar[name], bar[f"{name}^-1"] = f"{name}^-1", name
        d0[name], d0[f"{name}^-1"] = a, b
    graph = AbstractGraph.make(vertices, bar, d0)
    orders = {v: rng.choice([2, 3, 4, 6]) for v in vertices}
    vgroup = {v: cyclic_table(orders[v], f"g{i}") for i, v in enumerate(vertices)}
    egroup, emap = {}, {}
    for name, a, b in half_edges:
        nb = vgroup[b].order()
        na = vgroup[a].order()
        shared = cyclic_table(nb, "c")
        if na % nb != 0:
            return None
        egroup[name] = shared
        emap[f"{name}^-1"] = Hom.table(shared, vgroup[b], list(range(nb)))
        emap[name] = Hom.table(shared, vgroup[a], [(na // nb) * i % na for i in range(nb)])
    tree = frozenset(name for name, _, _ in half_edges)
    return GraphOfGroups.make(graph, vgroup, egroup, emap, tree=tree)


def test_criterion_3_contraction_invariance():
    """200 randomized free abelian graphs keep their abelianization under
    collapse; the finite analogs keep their group order."""
    start = time.time()
    rng = random.Random(20240809)
    done = 0
    while done < 200:
        g = _random_fa_graph(rng)
        if g is None:
            continue
        before = abelianization(pi1_presentation(g))
        collapsed = collapse_tree(g)
        after = abelianization(pi1_presentation(collapsed))
        assert before == after
        done += 1

    finite_done = 0
    while finite_done < 40:
        g = _random_ft_graph(rng)
        if g is None:
            continue
        table = coset_enumeration(pi1_presentation(g), 10_000)
        if not table.completed:
            continue
        collapsed = collapse_tree(g)
        after = coset_enumeration(pi1_presentation(collapsed), 10_000)
        assert after.order == table.order
        finite_done += 1
    elapsed = time.time() - start
    assert elapsed <= 60, f"criterion 3 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 3: PASS - 200 free abelian + 40 finite collapses invariant "
          f"({elapsed:.1f}s)")


def test_criterion_4_cross_oracle_word_problem():
    """is_trivial agrees with the coset-table action on every word of
    length <= 6 over the presentation generators."""
    start = time.time()
    fixtures = [
        ("pushout46 (converted)", convert_diagram(load("pushout46.gog"),
                                                  QuotientOracle.finite_enumeration(5000))),
        ("chain48", zoo.chain48()),
        ("chain39", zoo.chain39()),
        ("k4-leaf", zoo.k4_leaf()),
    ]
    total = 0
    for name, g in fixtures:
        assert classify(g) is DiagramClass.GRAPH_OF_GROUPS, name
        pres = pi1_presentation(g)
        table = coset_enumeration(pres, 5000)
        assert table.completed
        letters = [(l.name, s) for l in pres.generators for s in (1, -1)]
        for length in range(0, 7):
            for combo in itertools.product(letters, repeat=length):
                w = word_from_presentation_letters(g, list(combo), pres=pres)
                assert is_trivial(g, w) == (table.action(0, list(combo)) == 0), (
                    name,
                    combo,
                )
                total += 1
    elapsed = time.time() - start
    assert elapsed <= 120, f"criterion 4 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 4: PASS - {total} words cross-validated on 4 fixtures "
          f"({elapsed:.1f}s)")


def test_criterion_5_conversion():
    """pushout46 converts to a graph of groups with images of orders 2 and
    6, edge image of order 2, pi1 order 6 preserved."""
    g = load("pushout46.gog")
    assert classify(g) is DiagramClass.DIAGRAM
    before = coset_enumeration(pi1_presentation(g), 5000).order
    converted = convert_diagram(g, QuotientOracle.finite_enumeration(5000))
    assert classify(converted) is DiagramClass.GRAPH_OF_GROUPS
    assert converted.vgroup["u"].order() == 2
    assert converted.vgroup["v"].order() == 6
    assert converted.egroup["e"].order() == 2
    after = coset_enumeration(pi1_presentation(converted), 5000).order
    assert before == after == 6
    print("ACCEPTANCE 5: PASS - pushout46 converts to images (2, 6, 2), pi1 order 6")


def test_criterion_6_diagram_counterexample():
    """z3f2: rank bound 2, yet pi1 = Z^3 * F2 (abelianization rank 5, all
    pairwise commutators of a, b, c killed by free rewriting)."""
    g = load("z3f2-diagram.gog")
    assert classify(g) is DiagramClass.DIAGRAM
    assert rank_bound(g) == 2
    pres = pi1_presentation(g)
    inv = abelianization(pres)
    assert inv.free_rank == 5 and inv.torsion == ()
    # substitute the trivialized tree letters into the relators and freely
    # reduce: what survives is exactly the three pairwise commutators
    killed = {rel[0][0] for rel in pres.relators if len(rel) == 1}
    assert len(killed) == 1  # one tree orbit
    survivors = set()
    for rel in pres.relators:
        if len(rel) == 1:
            continue
        stripped = freely_reduce(tuple((n, s) for n, s in rel if n not in killed))
        survivors.add(stripped)
    comms = set()
    for x, y in [("a", "b"), ("a", "c"), ("b", "c")]:
        comms.add(((x, 1), (y, 1), (x, -1), (y, -1)))
    normalized = set()
    for rel in survivors:
        options = {rel, invert_word(rel)}
        cyclic = set()
        for w in options:
            for k in range(len(w)):
                cyclic.add(w[k:] + w[:k])
        match = cyclic & comms
        assert match, f"relator {rel} is not a pairwise commutator"
        normalized |= match
    assert normalized == comms
    # the letters of the presentation realize <a,b,c> x free(t2,t3)
    names = [l.name for l in pres.generators]
    assert names == ["a", "b", "c", "e1", "e2", "e3"]
    print("ACCEPTANCE 6: PASS - z3f2 diagram: bound 2, pi1 = Z^3 * F2 "
          "(free rank 5; commutators [a,b],[a,c],[b,c] trivial by rewriting)")


def test_criterion_7_dyadic_truncations():
    """dyadic-k collapses to a single Z vertex for k = 2..5."""
    for k in range(2, 6):
        g = load(f"dyadic-{k}.gog")
        collapsed = collapse_tree(g)
        assert len(collapsed.graph.vertices) == 1
        assert collapsed.graph.edges == frozenset()
        vertex = next(iter(collapsed.graph.vertices))
        assert collapsed.vgroup[vertex].rank == 1
        inv = abelianization(pi1_presentation(collapsed))
        assert inv.free_rank == 1 and inv.torsion == ()
    print("ACCEPTANCE 7: PASS - dyadic-2..5 collapse to a single Z vertex")


def _hom_stock():
    groups = [cyclic_table(n) for n in range(2, 17)]
    k4 = direct_product(cyclic_table(2, "p"), cyclic_table(2, "q"))
    groups += [
        k4,
        direct_product(cyclic_table(4, "p"), cyclic_table(2, "q")),
        direct_product(cyclic_table(2, "p"), direct_product(cyclic_table(2, "q"), cyclic_table(2, "r"))),
        direct_product(cyclic_table(3, "p"), cyclic_table(3, "q")),
        dihedral_table(3),
        dihedral_table(4),
        dihedral_table(6),
        dihedral_table(8),
    ]
    return [g for g in groups if g.order() <= 16]


def test_criterion_8_rank_monotonicity():
    """rank(image) <= rank(source) over 500+ sampled homomorphisms, and
    product_rank_family(m) has rank >= m."""
    start = time.time()
    stock = _hom_stock()
    homs = 0
    violations = 0
    # all homs out of cyclic groups: i -> h^i for h with h^n = 1
    cyclics = [cyclic_table(n) for n in range(2, 17)]
    for src in cyclics:
        n = src.order()
        for dst in stock:
            for h in dst.elements():
                if dst.power(h, n) != dst.id_index:
                    continue
                hom = Hom.table(src, dst, [dst.power(h, i) for i in range(n)])
                image, _ = subgroup_table(dst, set(hom.data))
                if group_rank(image) > group_rank(src):
                    violations += 1
                homs += 1
    # exhaustive generator-image homs out of small non-cyclic groups
    small_targets = [g for g in stock if g.order() <= 8]
    for src in stock:
        rank = group_rank(src)
        if rank < 2 or src.order() > 8:
            continue
        for dst in small_targets:
            for images in itertools.product(range(dst.order()), repeat=rank):
                try:
                    hom = Hom.from_generator_images(src, dst, list(images))
                except ShapeMismatch:
                    continue
                image, _ = subgroup_table(dst, set(hom.data))
                if group_rank(image) > group_rank(src):
                    violations += 1
                homs += 1
    assert homs >= 500, f"only {homs} homs sampled"
    assert violations == 0

    for m in range(5):
        for base in (cyclic_table(1), cyclic_table(2), cyclic_table(3), cyclic_table(4)):
            g = product_rank_family(m, base)
            assert group_rank(g) >= m
    elapsed = time.time() - start
    assert elapsed <= 120, f"criterion 8 took {elapsed:.1f}s"
    print(f"ACCEPTANCE 8: PASS - {homs} homs, zero rank violations; "
          f"product family ranks >= m ({elapsed:.1f}s)")


def test_criterion_9_out_of_scope_documented():
    """The infinitary statements are documented as out of scope, with the
    heegaard-t3 corpus entry present as documentation."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    assert "not reproduced" in readme.lower() or "out of scope" in readme.lower()
    doc = (pathlib.Path(__file__).parent.parent / "docs" / "heegaard_t3.md").read_text()
    assert "genus-3" in doc
    print("ACCEPTANCE 9: PASS - out-of-scope items documented "
          "(README + docs/heegaard_t3.md)")
