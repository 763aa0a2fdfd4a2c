"""Seeded inputs, timed library calls and reference checks of the four
benchmark workloads.

Every input is built from the seed through the public gogroups API; the
only files read are the `.gog` fixtures and the golden CLI outputs under
`tests/`.  Each workload builder returns a list of `Item`s: `run` makes
the library calls that produce one answer (the timed part) and `check`
compares that answer with a reference computed outside the code under
test (untimed).  Both take a tracer, whose spans wrap every call into a
library layer; the untraced tracer does nothing.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
GOLDEN = ROOT / "tests" / "golden"
# the library under test is this checkout's source tree, never an installed copy
sys.path.insert(0, str(ROOT / "src"))

from gogroups import (  # noqa: E402
    AbstractGraph,
    CapExceeded,
    DiagramClass,
    FiniteTable,
    FreeAbelian,
    FreeGroup,
    GraphOfGroups,
    Hom,
    QuotientOracle,
    ShapeMismatch,
    abelianization,
    classify,
    collapse_tree,
    convert_diagram,
    coset_enumeration,
    cyclic_table,
    dihedral_table,
    direct_product,
    group_rank,
    hom_is_injective,
    parse_gog_text,
    pi1_presentation,
    product_rank_family,
    recognize_abelian,
    reduce,
    serialize_gog,
    word_from_presentation_letters,
)
from gogroups import cli  # noqa: E402
from gogroups.groups import subgroup_table  # noqa: E402
from gogroups.quotients import word_exponent_vector  # noqa: E402

ENUM_CAP = 10_000
CLI_COMMANDS = (
    "validate", "classify", "pi1", "abelianize", "contract", "collapse", "convert",
    "decompose", "reduce", "trivial", "recognize-abelian", "rank-bound", "enumerate",
)
GOLDEN_CASES = {
    ("pi1", "torus"): "torus-pi1.txt",
    ("recognize-abelian", "klein"): "klein-recognize.txt",
    ("convert", "pushout46"): "pushout46-convert.txt",
    ("decompose", "trefoil"): "trefoil-decompose.txt",
    ("enumerate", "finite-star"): "finite-star-enumerate.txt",
}


@dataclass
class Item:
    name: str
    run: Callable      # run(tracer) -> answer; the timed library calls
    check: Callable    # check(answer, tracer) -> bool; the untimed reference
    digest: str        # canonical text of the input, hashed into the run digest


# ---------------------------------------------------------------------------
# shared helpers


def _graph(vertices, half_edges):
    """half_edges: (name, origin, terminus); the reverse id is name^-1."""
    bar, d0 = {}, {}
    for name, origin, terminus in half_edges:
        back = f"{name}^-1"
        bar[name], bar[back] = back, name
        d0[name], d0[back] = origin, terminus
    return AbstractGraph.make(vertices, bar, d0)


def _vertex_class(g) -> str:
    kinds = {type(grp) for grp in g.vgroup.values()}
    if FreeGroup in kinds:
        return "free"
    return "finite" if kinds == {FiniteTable} else "free_abelian"


def read_fixture(tr, name):
    text = (FIXTURES / f"{name}.gog").read_text()
    with tr.span("gogfile.parse"):
        g = parse_gog_text(text, path=f"{name}.gog")
    tr.count("gogfile.parse.bytes", len(text.encode()))
    return g


def prepare(tr, g):
    """The per-graph preparation every word workload pays once: classify
    and the default presentation."""
    with tr.span("gog.classify"):
        kind = classify(g)
    with tr.span("gog.pi1_presentation"):
        pres = pi1_presentation(g)
    tr.count("gog.pi1_presentation.relators", len(pres.relators))
    return kind, pres


def enumerate_cosets(tr, pres):
    with tr.span("quotients.coset_enumeration"):
        table = coset_enumeration(pres, ENUM_CAP)
    tr.count("quotients.coset_enumeration.cosets_defined", table.cosets_defined)
    tr.count("quotients.coset_enumeration.order", table.order or 0)
    return table


def expand_and_reduce(tr, g, pres, letters, graph_name, vertex_class):
    """Letter expansion then pinch reduction; returns the pinch-free word."""
    with tr.span("words.expand", group=graph_name) as rec:
        w = word_from_presentation_letters(g, letters, pres=pres)
    rec["size"] = len(w)
    tr.count("words.expand.edges_out", len(w))
    with tr.span("words.reduce", group=graph_name, kind=vertex_class) as rec:
        form = reduce(g, w)
    rec["size"] = len(w)
    tr.count("words.reduce.edges_in", len(w))
    tr.count("words.reduce.pinches", (len(w) - len(form.word)) // 2)
    return form.word


def is_identity_form(g, word) -> bool:
    return len(word) == 0 and g.vgroup[word.base].is_identity(word.elements[0])


def _letters_text(letters) -> str:
    return " ".join(f"{n}^-1" if s < 0 else n for n, s in letters)


def _invert(letters):
    return [(n, -s) for n, s in reversed(letters)]


# ---------------------------------------------------------------------------
# word_sweep: short words over the four finite graphs of the cross-oracle
# word-problem sweep, each answer checked against the coset-table action


def chain(small: int, large: int):
    """Z/small included into Z/large along one edge; pi1 = Z/large."""
    zs, zl, ze = cyclic_table(small, "a"), cyclic_table(large, "b"), cyclic_table(small, "c")
    step = large // small
    return GraphOfGroups.make(
        _graph(["u", "v"], [("e", "u", "v")]),
        {"u": zs, "v": zl},
        {"e": ze},
        {
            "e": Hom.table(ze, zs, list(range(small))),
            "e^-1": Hom.table(ze, zl, [step * i for i in range(small)]),
        },
    )


def k4_leaf():
    """One Z/2 leaf hitting a factor of Z/2 x Z/2; pi1 = Klein four."""
    k4 = direct_product(cyclic_table(2, "p"), cyclic_table(2, "q"))
    z2, z2e = cyclic_table(2, "a"), cyclic_table(2, "c")
    return GraphOfGroups.make(
        _graph(["m", "p"], [("s", "p", "m")]),
        {"m": k4, "p": z2},
        {"s": z2e},
        {"s": Hom.table(z2e, z2, [0, 1]), "s^-1": Hom.table(z2e, k4, [0, 2])},
    )


def word_sweep(seed: int, tr, smoke: bool = False):
    rng = random.Random(seed)
    pushout = read_fixture(tr, "pushout46")
    with tr.span("moves.convert_diagram"):
        converted = convert_diagram(pushout, QuotientOracle.finite_enumeration(5000))
    graphs = [("pushout46-enum", converted), ("chain48", chain(4, 8)),
              ("chain39", chain(3, 9)), ("k4-leaf", k4_leaf())]
    prepared = []
    for name, g in graphs:
        _, pres = prepare(tr, g)
        table = enumerate_cosets(tr, pres)
        prepared.append((name, g, pres, table, [l.name for l in pres.generators]))

    items = []
    for _ in range(60 if smoke else 4000):
        name, g, pres, table, names = rng.choice(prepared)
        letters = [(rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(0, 8))]
        items.append(_word_item(name, g, pres, table, letters))
    return items


def _word_item(name, g, pres, table, letters):
    def run(tr):
        return is_identity_form(g, expand_and_reduce(tr, g, pres, letters, name, "finite"))

    def check(trivial, tr):
        with tr.span("quotients.action"):
            coset = table.action(0, letters)
        return trivial == (coset == 0)

    return Item(f"{name}: {_letters_text(letters)}", run, check,
                f"{name}|{_letters_text(letters)}")


# ---------------------------------------------------------------------------
# long_words: few long loop words on infinite graphs whose verdict is known
# by construction


# Letter counts of the word r, per graph: five steps of a geometric series,
# so that the item costs spread evenly.  Five steps, not more, keep a round
# short enough for a run to hold a dozen or more rounds.  The two-vertex
# graphs expand each letter to more edge letters, so their words are
# shorter.
LONG_LENGTHS = {
    "torus": tuple(round(250 * 4 ** (i / 4)) for i in range(5)),        # 250 .. 1000
    "klein": tuple(round(250 * 4 ** (i / 4)) for i in range(5)),
    "trefoil": tuple(round(100 * 3 ** (i / 4)) for i in range(5)),      # 100 .. 300
    "amalgam-2-3": tuple(round(100 * 3 ** (i / 4)) for i in range(5)),
}
# The letter c of r c r^-1, nontrivial in pi1.
NONTRIVIAL_LETTER = {"torus": "a", "klein": "a", "trefoil": "x", "amalgam-2-3": "x"}


def reduced_word(rng, name, length):
    """A seeded word with no pinch of its own, so that its reduction work
    depends on its length and not on the seed.  On the one-vertex graphs the
    stable letter t keeps one sign and alternates with a^+-1; on the
    amalgams x^+-1 alternates with y^+-1, neither of which lies in the
    edge group <x^2 = y^3>."""
    if name in ("torus", "klein"):
        sign = rng.choice((1, -1))
        pairs = [[("t", sign), ("a", rng.choice((1, -1)))] for _ in range(length // 2)]
    else:
        first, second = rng.sample(["x", "y"], 2)
        pairs = [[(first, rng.choice((1, -1))), (second, rng.choice((1, -1)))]
                 for _ in range(length // 2)]
    return [letter for pair in pairs for letter in pair]


def long_words(seed: int, tr, smoke: bool = False):
    rng = random.Random(seed)
    items = []
    for name, lengths in LONG_LENGTHS.items():
        g = read_fixture(tr, name)
        _, pres = prepare(tr, g)
        vclass = _vertex_class(g)
        c = NONTRIVIAL_LETTER[name]
        for half in lengths[:1] if smoke else lengths:
            r = reduced_word(rng, name, half)
            cases = [("r.r^-1", r + _invert(r), True),
                     ("r.c.r^-1", r + [(c, 1)] + _invert(r), False)]
            if name in ("torus", "klein"):
                # t^L a t^-L a^-1: trivial on the torus; on the Klein bottle
                # t a t^-1 = a^-1, so trivial exactly when L is even
                power = half + rng.randint(0, 1)
                word = [("t", 1)] * power + [("a", 1)] + [("t", -1)] * power + [("a", -1)]
                cases.append((f"t^{power}.a.t^-{power}.a^-1", word,
                               name == "torus" or power % 2 == 0))
            for label, letters, expected in cases:
                items.append(_long_item(name, g, pres, vclass, f"{label} L={half}",
                                        letters, expected))
    rng.shuffle(items)
    return items


def _long_item(name, g, pres, vclass, label, letters, expected):
    def run(tr):
        return is_identity_form(g, expand_and_reduce(tr, g, pres, letters, name, vclass))

    def check(trivial, tr):
        if trivial != expected:
            return False
        if name == "torus":
            # pi1 of the torus is Z^2 = its abelianization: trivial iff the
            # exponent vector vanishes
            return trivial == (not any(word_exponent_vector(pres, letters)))
        return True

    return Item(f"{name}: {label}", run, check, f"{name}|{_letters_text(letters)}")


# ---------------------------------------------------------------------------
# rank_sweep: minimal generating sets of small finite tables


def elementary_abelian(k: int):
    g = cyclic_table(2, "p")
    for _ in range(k - 1):
        g = direct_product(g, cyclic_table(2, "q"))
    return g


def family_table(m: int, base: int):
    """The table product_rank_family(m, Z/base) builds, without its rank check."""
    g = cyclic_table(base)
    for _ in range(m):
        g = direct_product(g, cyclic_table(2))
    return g


def hom_stock():
    """The named target groups of the rank-monotonicity sweep (order <= 16)."""
    groups = [(f"Z/{n}", cyclic_table(n)) for n in range(2, 17)]
    groups += [
        ("Z/2xZ/2", direct_product(cyclic_table(2, "p"), cyclic_table(2, "q"))),
        ("Z/4xZ/2", direct_product(cyclic_table(4, "p"), cyclic_table(2, "q"))),
        ("(Z/2)^3", elementary_abelian(3)),
        ("Z/3xZ/3", direct_product(cyclic_table(3, "p"), cyclic_table(3, "q"))),
        ("D3", dihedral_table(3)), ("D4", dihedral_table(4)),
        ("D6", dihedral_table(6)), ("D8", dihedral_table(8)),
    ]
    return [(name, g) for name, g in groups if g.order() <= 16]


def reference_rank(table: FiniteTable, elements) -> int | None:
    """Minimal generator count of the subgroup on `elements`, computed from
    the multiplication table alone: 0 or 1 for trivial and cyclic groups,
    the largest p-rank log_p |{x : x^p = 1}| for abelian ones, 2 when some
    pair generates.  None when none of these decides."""
    mul, e = table.mul_table, table.id_index
    elements = list(elements)
    n = len(elements)

    def power(x, k):
        y = e
        for _ in range(k):
            y = mul[y][x]
        return y

    def order(x):
        k, y = 1, x
        while y != e:
            y, k = mul[y][x], k + 1
        return k

    if n == 1:
        return 0
    if any(order(x) == n for x in elements):
        return 1
    if all(mul[x][y] == mul[y][x] for x in elements for y in elements):
        rank = 0
        for p in (p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))):
            count = sum(1 for x in elements if power(x, p) == e)
            rank = max(rank, round(math.log(count, p)))
        return rank
    for x, y in itertools.combinations(elements, 2):
        seen, frontier = {e}, [e]
        while frontier:
            z = frontier.pop()
            for g in (x, y):
                w = mul[z][g]
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) == n:
            return 2
    return None


def rank_sweep(seed: int, tr, smoke: bool = False):
    rng = random.Random(seed)
    stock = hom_stock()
    homs = []
    # every hom out of a cyclic group: i -> h^i for h with h^n = 1
    for n in range(2, 17):
        src = (f"Z/{n}", cyclic_table(n), 1)
        for name, dst in stock:
            for h in dst.elements():
                if dst.power(h, n) == dst.id_index:
                    homs.append(("table", src, (name, dst), tuple(dst.power(h, i) for i in range(n))))
    # every generator-image hom out of the small non-cyclic groups
    for src_name, src in stock:
        if src.order() > 8 or group_rank(src) < 2:
            continue
        source = (src_name, src, reference_rank(src, src.elements()))
        for name, dst in stock:
            if dst.order() > 8:
                continue
            for images in itertools.product(range(dst.order()), repeat=group_rank(src)):
                try:
                    Hom.from_generator_images(src, dst, list(images))
                except ShapeMismatch:
                    continue
                homs.append(("images", source, (name, dst), images))
    if smoke:
        homs = rng.sample(homs, 40)
    items = [_hom_item(*spec) for spec in homs]

    ranks = (3, 4)
    items += [_rank_item(f"(Z/2)^{k}", elementary_abelian(k), k) for k in ranks]
    # family members equal to an earlier table would only time a cache hit;
    # every member with m = 4 is (Z/2)^4 or one of rank_probes
    seen = {elementary_abelian(k).mul_table for k in ranks}
    for m, base in itertools.product(range(3 if smoke else 4), range(1, 5)):
        key = family_table(m, base).mul_table
        if key not in seen:
            seen.add(key)
            items.append(_family_item(m, base))
    rng.shuffle(items)
    return items


def rank_probes(seed: int, tr, smoke: bool = False):
    """Tables whose rank search takes 0.4 s or more, run only in traced
    runs, as probes in one extra round outside the timed workload: one item
    that long would set rank_sweep's throughput by itself, and a long
    item's best time is the least steady.  The last two overrun the budget
    at the defining commit: a fix shows up as a lower
    `groups.group_rank.over_budget`, never as a changed input."""
    return [_rank_item("(Z/2)^5", elementary_abelian(5), 5), _family_item(4, 3),
            _rank_item("(Z/2)^6", elementary_abelian(6), 6), _family_item(4, 4)]


def _hom_item(kind, source, target, data):
    """`source` carries its rank from reference_rank: the image rank is at
    most the source rank."""
    src_name, src, source_rank = source
    dst_name, dst = target

    def run(tr):
        with tr.span("groups.hom_build"):
            if kind == "table":
                hom = Hom.table(src, dst, list(data))
            else:
                hom = Hom.from_generator_images(src, dst, list(data))
        with tr.span("groups.subgroup_table"):
            image, inclusion = subgroup_table(dst, set(hom.data))
        with tr.span("groups.group_rank"):
            rank = group_rank(image)
        return rank, hom.data, len(inclusion)

    def check(answer, tr):
        rank, mapping, order = answer
        expected = reference_rank(dst, set(mapping))
        return (expected is not None and rank == expected and order == len(set(mapping))
                and rank <= source_rank)

    label = f"hom {src_name} -> {dst_name} {kind} {list(data)}"
    return Item(label, run, check, label)


def _rank_item(label, table, rank):
    """A table whose rank is known in closed form: (Z/2)^k has rank k."""
    def run(tr):
        with tr.span("groups.group_rank"):
            return group_rank(table)

    def check(answer, tr):
        return answer == rank == reference_rank(table, table.elements())

    return Item(label, run, check, label)


def _family_item(m, base):
    """product_rank_family(m, Z/base) has rank at least m."""
    def run(tr):
        with tr.span("analysis.product_rank_family"):
            table = product_rank_family(m, cyclic_table(base))
        with tr.span("groups.group_rank"):
            return table, group_rank(table)

    def check(answer, tr):
        table, rank = answer
        return rank >= m and rank == reference_rank(table, table.elements())

    label = f"family(m={m}, Z/{base})"
    return Item(label, run, check, label)


# ---------------------------------------------------------------------------
# graph_pipeline: seeded graphs through the structural layers, and every
# CLI subcommand on every fixture


def _unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            k = rng.randint(-2, 2)
            for c in range(n):
                m[i][c] += k * m[j][c]
    return m


def random_free_abelian_graph(rng, n, extra):
    """A tree of free abelian groups on n vertices whose child sides are
    isomorphisms, plus `extra` edges with trivial edge groups.  By
    construction pi1 is Z^rank(root) * F_extra, so its abelianization is
    free of rank rank(root) + extra, and it is abelian only when that free
    product is Z itself.  Ranks are the fixed multiset 4, 3, ..., 0, 4, ...
    in non-increasing order, so any earlier vertex can be a parent."""
    vertices = [f"v{i:02d}" for i in range(n)]
    ranks = dict(zip(vertices, sorted((i % 5 for i in range(n)), reverse=True)))
    vgroup = {v: FreeAbelian(ranks[v]) for v in vertices}
    half_edges, egroup, emap = [], {}, {}
    for i in range(1, n):
        child, parent = vertices[i], rng.choice(vertices[:i])
        shared = FreeAbelian(ranks[child])
        while True:
            m = [[rng.randint(-2, 2) for _ in range(shared.rank)] for _ in range(ranks[parent])]
            into_parent = Hom.matrix(shared, vgroup[parent], m)
            if hom_is_injective(into_parent):
                break
        name = f"e{i:02d}"
        half_edges.append((name, parent, child))
        egroup[name] = shared
        emap[name] = into_parent
        emap[f"{name}^-1"] = Hom.matrix(shared, vgroup[child], _unimodular(rng, shared.rank))
    trivial = FreeAbelian(0)
    for k in range(extra):
        name = f"x{k}"
        a, b = rng.choice(vertices), rng.choice(vertices)
        half_edges.append((name, a, b))
        egroup[name] = trivial
        emap[name] = Hom.matrix(trivial, vgroup[a], [[] for _ in range(ranks[a])])
        emap[f"{name}^-1"] = Hom.matrix(trivial, vgroup[b], [[] for _ in range(ranks[b])])
    tree = [name for name, _, _ in half_edges if name.startswith("e")]
    g = GraphOfGroups.make(_graph(vertices, half_edges), vgroup, egroup, emap, tree=tree)
    return g, ranks[vertices[0]]


def random_finite_tree(rng, root_order, n):
    """A tree of n cyclic groups, each child included into its parent with
    an isomorphism on the child side; pi1 is the root group."""
    vertices = [f"v{i}" for i in range(n)]
    parents = {vertices[i]: rng.choice(vertices[:i]) for i in range(1, n)}
    orders = {vertices[0]: root_order}
    for child, parent in parents.items():
        orders[child] = rng.choice([d for d in range(2, orders[parent] + 1)
                                    if orders[parent] % d == 0])
    vgroup = {v: cyclic_table(orders[v], f"g{i}") for i, v in enumerate(vertices)}
    half_edges, egroup, emap = [], {}, {}
    for i, (child, parent) in enumerate(parents.items(), start=1):
        nb, step = orders[child], orders[parent] // orders[child]
        shared = cyclic_table(nb, "c")
        half_edges.append((f"e{i}", parent, child))
        egroup[f"e{i}"] = shared
        emap[f"e{i}"] = Hom.table(shared, vgroup[parent], [step * j for j in range(nb)])
        emap[f"e{i}^-1"] = Hom.table(shared, vgroup[child], list(range(nb)))
    return GraphOfGroups.make(_graph(vertices, half_edges), vgroup, egroup, emap,
                              tree=[name for name, _, _ in half_edges])


def random_pushout(rng, a, b):
    """Z/a <-id- Z/a -(c -> y^k)-> Z/b with a non-injective right map and
    b | k a, so pi1 = <y | y^b, y^(k a)> = Z/b.  The seed picks k."""
    k = rng.choice([k for k in range(1, b) if (k * a) % b == 0
                    and any((k * i) % b == 0 for i in range(1, a))])
    za, zb, ze = cyclic_table(a, "a"), cyclic_table(b, "b"), cyclic_table(a, "c")
    g = GraphOfGroups.make(
        _graph(["u", "v"], [("e", "u", "v")]),
        {"u": za, "v": zb},
        {"e": ze},
        {"e": Hom.table(ze, za, list(range(a))),
         "e^-1": Hom.table(ze, zb, [(k * i) % b for i in range(a)])},
    )
    return g, k


# Sizes are fixed per position, and the seed varies everything else, so
# that the work of a round depends little on the seed.  The free-abelian
# graphs are the heaviest items, about 40-90 ms each on a 2.1 GHz Xeon
# vCPU.  The longer an item, the less steady its best time, so there are
# fewer of them than the ten items beyond the tail percentile, which then
# falls among the `gog convert` items of 15-35 ms.
FREE_ABELIAN_SHAPES = [(6 + i % 3, 1 + i % 4) for i in range(6)]    # (vertices, extra edges)
FINITE_TREE_SHAPES = ((8, 5), (12, 4), (16, 3), (18, 2), (24, 3))   # (root order, vertices)
PUSHOUT_ORDERS = ((4, 6), (6, 4), (6, 3), (4, 2))


def graph_pipeline(seed: int, tr, smoke: bool = False):
    rng = random.Random(seed)
    items = []
    for i, (n, extra) in enumerate(FREE_ABELIAN_SHAPES[:2] if smoke else FREE_ABELIAN_SHAPES):
        g, root_rank = random_free_abelian_graph(rng, n, extra)
        items.append(_free_abelian_item(f"fa#{i}", g, root_rank, extra))
    for i, (order, n) in enumerate(FINITE_TREE_SHAPES[:1] if smoke else FINITE_TREE_SHAPES):
        items.append(_finite_tree_item(f"ft#{i}", random_finite_tree(rng, order, n), order))
    for a, b in PUSHOUT_ORDERS[:1] if smoke else PUSHOUT_ORDERS:
        g, k = random_pushout(rng, a, b)
        items.append(_diagram_item(f"pushout(a={a},b={b},k={k})", g, "enum", order=b))
        items.append(_diagram_item(f"pushout(a={a},b={b},k={k})", g, "abel", torsion=(b,), free=0))
    items.append(_diagram_item("pushout46", read_fixture(tr, "pushout46"), "enum", order=6))
    items.append(_diagram_item("z3f2-diagram", read_fixture(tr, "z3f2-diagram"), "abel",
                               torsion=(), free=5))
    items += cli_items(tr, smoke)
    # spread each kind of job over the whole round
    rng.shuffle(items)
    return items


def _free_abelian_item(name, g, root_rank, extra):
    def run(tr):
        with tr.span("gogfile.serialize"):
            text = serialize_gog(g)
        tr.count("gogfile.serialize.bytes", len(text.encode()))
        with tr.span("gogfile.parse"):
            parsed = parse_gog_text(text)
        tr.count("gogfile.parse.bytes", len(text.encode()))
        kind, pres = prepare(tr, parsed)
        with tr.span("quotients.abelianization"):
            before = abelianization(pres)
        with tr.span("analysis.recognize_abelian"):
            verdict = recognize_abelian(parsed)
        with tr.span("moves.collapse_tree"):
            collapsed = collapse_tree(parsed)
        _, collapsed_pres = prepare(tr, collapsed)
        with tr.span("quotients.abelianization"):
            after = abelianization(collapsed_pres)
        return kind, before, after, verdict.abelian, verdict.rank

    def check(answer, tr):
        kind, before, after, abelian, rank = answer
        free_rank = root_rank + extra
        expect_abelian = extra == 1 and root_rank == 0
        return (kind is DiagramClass.GRAPH_OF_GROUPS and before == after
                and before.torsion == () and before.free_rank == free_rank
                and abelian == expect_abelian and (not abelian or rank == free_rank))

    return Item(name, run, check, f"{name}|{serialize_gog(g)}")


def _finite_tree_item(name, g, order):
    def run(tr):
        _, pres = prepare(tr, g)
        before = enumerate_cosets(tr, pres).order
        with tr.span("moves.collapse_tree"):
            collapsed = collapse_tree(g)
        _, collapsed_pres = prepare(tr, collapsed)
        return before, enumerate_cosets(tr, collapsed_pres).order

    def check(answer, tr):
        return answer == (order, order)

    return Item(name, run, check, f"{name}|{serialize_gog(g)}")


def _diagram_item(name, d, oracle, order=None, torsion=None, free=None):
    def run(tr):
        with tr.span("gog.classify"):
            before = classify(d)
        quotient = (QuotientOracle.finite_enumeration(5000) if oracle == "enum"
                    else QuotientOracle.abelianization())
        try:
            with tr.span("moves.convert_diagram"):
                converted = convert_diagram(d, quotient)
        except CapExceeded:
            tr.count("moves.convert_diagram.cap_exceeded")
            raise
        after, pres = prepare(tr, converted)
        if oracle == "enum":
            return before, after, enumerate_cosets(tr, pres).order
        with tr.span("quotients.abelianization"):
            return before, after, abelianization(pres)

    def check(answer, tr):
        before, after, invariant = answer
        if before is not DiagramClass.DIAGRAM or after is not DiagramClass.GRAPH_OF_GROUPS:
            return False
        if oracle == "enum":
            return invariant == order
        return invariant.torsion == torsion and invariant.free_rank == free

    return Item(f"{name} convert {oracle}", run, check, f"{name}|{oracle}|{serialize_gog(d)}")


def cli_arguments(tr, fixture):
    """Arguments for every subcommand on one fixture: the first orbit for
    --edge, the commutator of the first two presentation letters for --word,
    and the options of the golden outputs elsewhere."""
    g = read_fixture(tr, fixture)
    _, pres = prepare(tr, g)
    names = [l.name for l in pres.generators]
    a, b = (names + names)[:2]
    edge = min(name for name in g.graph.edges if not name.endswith("^-1"))
    extra = {
        "contract": ["--edge", edge],
        "decompose": ["--edge", edge],
        "convert": ["--oracle", "enum:5000"],
        "reduce": ["--word", f"{a} {b} {a}^-1 {b}^-1"],
        "trivial": ["--word", f"{a} {b} {a}^-1 {b}^-1"],
        "enumerate": ["--cap", "100"],
    }
    path = str(FIXTURES / f"{fixture}.gog")
    return {cmd: [cmd, *extra.get(cmd, []), path] for cmd in CLI_COMMANDS}


def cli_items(tr, smoke: bool = False):
    expected = json.loads((Path(__file__).parent / "expected_cli.json").read_text())
    fixtures = sorted(expected)
    if smoke:
        fixtures = ["torus", "finite-star", "pushout46"]
    items = []
    for fixture in fixtures:
        args = cli_arguments(tr, fixture)
        for cmd in CLI_COMMANDS:
            golden = GOLDEN_CASES.get((cmd, fixture))
            want = (GOLDEN / golden).read_text() if golden else None
            items.append(_cli_item(fixture, args[cmd], expected[fixture][cmd], want))
    return items


def _cli_item(fixture, argv, exit_code, golden):
    def run(tr):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tr.span("cli.main"):
                code = cli.main(argv)
        return code, out.getvalue()

    def check(answer, tr):
        code, stdout = answer
        return code == exit_code and (golden is None or stdout == golden)

    shown = " ".join(argv[:-1])
    return Item(f"gog {shown} {fixture}", run, check, f"{fixture}|{shown}")


def preflight(tr) -> list:
    """One call into every layer on small fixtures, each checked against a
    known answer, before a round is timed.  A round never measures a
    library that is broken elsewhere, and every per-layer timer of every
    workload has a measured value.  Returns the failed checks."""
    torus, trefoil, star = (read_fixture(tr, n) for n in ("torus", "trefoil", "finite-star"))
    with tr.span("gogfile.serialize"):
        text = serialize_gog(torus)
    tr.count("gogfile.serialize.bytes", len(text.encode()))
    _, torus_pres = prepare(tr, torus)
    _, trefoil_pres = prepare(tr, trefoil)
    _, star_pres = prepare(tr, star)
    with tr.span("quotients.abelianization"):
        torus_ab = abelianization(torus_pres)
    table = enumerate_cosets(tr, star_pres)
    with tr.span("quotients.action"):
        coset = table.action(0, [("b", 1)] * 6)
    commutator = [("a", 1), ("t", 1), ("a", -1), ("t", -1)]
    free_commutator = [("x", 1), ("y", 1), ("x", -1), ("y", -1)]
    with tr.span("groups.hom_build"):
        hom = Hom.table(cyclic_table(2), cyclic_table(6), [0, 3])
    with tr.span("groups.subgroup_table"):
        image, _ = subgroup_table(hom.dst, set(hom.data))
    with tr.span("groups.group_rank"):
        rank = group_rank(hom.dst)
    dyadic, pushout = read_fixture(tr, "dyadic-2"), read_fixture(tr, "pushout46")
    with tr.span("moves.collapse_tree"):
        collapsed = collapse_tree(dyadic)
    with tr.span("moves.convert_diagram"):
        converted = convert_diagram(pushout, QuotientOracle.finite_enumeration(5000))
    with tr.span("analysis.recognize_abelian"):
        verdict = recognize_abelian(torus)
    with tr.span("analysis.product_rank_family"):
        family = product_rank_family(1, cyclic_table(2))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), tr.span("cli.main"):
        code = cli.main(["validate", str(FIXTURES / "torus.gog")])
    checks = {
        "torus abelianization is Z^2": torus_ab.free_rank == 2 and torus_ab.torsion == (),
        "finite-star has order 6 and b^6 = 1": table.order == 6 and coset == 0,
        "torus commutator is trivial": is_identity_form(
            torus, expand_and_reduce(tr, torus, torus_pres, commutator, "torus", "free_abelian")),
        "trefoil commutator is not trivial": not is_identity_form(
            trefoil, expand_and_reduce(tr, trefoil, trefoil_pres, free_commutator, "trefoil", "free")),
        "finite-star b^6 is trivial": is_identity_form(
            star, expand_and_reduce(tr, star, star_pres, [("b", 1)] * 6, "finite-star", "finite")),
        "Z/6 has rank 1 and Z/2 image": rank == 1 and image.order() == 2,
        "dyadic-2 collapses to one vertex": len(collapsed.graph.vertices) == 1,
        "pushout46 converts": classify(converted) is DiagramClass.GRAPH_OF_GROUPS,
        "torus is abelian of rank 2": verdict.abelian and verdict.rank == 2,
        "family(1, Z/2) has order 4": family.order() == 4,
        "gog validate torus": code == 0 and out.getvalue() == "valid\n",
    }
    return [name for name, ok in checks.items() if not ok]


WORKLOADS = {
    "word_sweep": word_sweep,
    "long_words": long_words,
    "rank_sweep": rank_sweep,
    "graph_pipeline": graph_pipeline,
}
PROBES = {"rank_sweep": rank_probes}
