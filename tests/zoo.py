"""Programmatic constructions of the fixture corpus, shared across tests.

The .gog files under tests/fixtures mirror these; test_cli checks that
parsing each file reproduces the same presentation.  The seeded families
at the end each take a ``random.Random`` and build one diagram from it.
"""

import itertools
import random

from gogroups.errors import InvalidStructure, LoopContraction, NotIso
from gogroups.graph import AbstractGraph, contract_edge_graph
from gogroups.gog import GraphOfGroups, require_valid_gog
from gogroups.groups import (
    FreeAbelian, FreeGroup, Hom, compose, cyclic_table, direct_product, inverse, is_isomorphism,
)


def _graph(vertices, half_edges):
    """half_edges: list of (name, origin, terminus); bar ids get ^-1."""
    bar, d0 = {}, {}
    for name, origin, terminus in half_edges:
        back = f"{name}^-1"
        bar[name], bar[back] = back, name
        d0[name], d0[back] = origin, terminus
    return AbstractGraph.make(vertices, bar, d0)


# name-level word helpers: references independent of the library's free words


def freely_reduce(word) -> tuple:
    """Cancel adjacent (name, sign), (name, -sign) pairs in a word of
    (letter name, +1 | -1) pairs."""
    out = []
    for name, sign in word:
        if out and out[-1][0] == name and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((name, sign))
    return tuple(out)


def invert_word(word) -> tuple:
    return tuple((name, -sign) for name, sign in reversed(word))


def one_vertex(group):
    """One vertex ``v`` with the given group and no edges."""
    return GraphOfGroups.make(_graph(["v"], []), {"v": group}, {}, {})


def hnn(vertex_group, edge_group, fwd, back, vertex="v", loop="t", base=None):
    """One vertex, one loop; relation t * back(c) * t^-1 = fwd(c)."""
    graph = _graph([vertex], [(loop, vertex, vertex)])
    return GraphOfGroups.make(
        graph,
        {vertex: vertex_group},
        {loop: edge_group},
        {loop: fwd, f"{loop}^-1": back},
        base=base,
    )


def torus():
    za = FreeAbelian(1, ("a",))
    zc = FreeAbelian(1, ("c",))
    ident = Hom.matrix(zc, za, [[1]])
    return hnn(za, zc, ident, ident)


def klein():
    """alpha1 = identity, alpha2 = negation: t a t^-1 = a^-1."""
    za = FreeAbelian(1, ("a",))
    zc = FreeAbelian(1, ("c",))
    return hnn(za, zc, Hom.matrix(zc, za, [[-1]]), Hom.matrix(zc, za, [[1]]))


def bs12():
    """alpha1 = identity, alpha2 = doubling: t a t^-1 = a^2."""
    za = FreeAbelian(1, ("a",))
    zc = FreeAbelian(1, ("c",))
    return hnn(za, zc, Hom.matrix(zc, za, [[2]]), Hom.matrix(zc, za, [[1]]))


def two_loop_trivial():
    triv = FreeAbelian(0)
    graph = _graph(["v"], [("t1", "v", "v"), ("t2", "v", "v")])
    trivial_map = Hom.matrix(triv, triv, [])
    return GraphOfGroups.make(
        graph,
        {"v": triv},
        {"t1": triv, "t2": triv},
        {e: trivial_map for e in graph.edges},
    )


def amalgam23():
    """Z <-x2- Z -x3-> Z, free abelian everywhere (the trefoil group)."""
    zu = FreeAbelian(1, ("x",))
    zv = FreeAbelian(1, ("y",))
    zc = FreeAbelian(1, ("c",))
    graph = _graph(["u", "v"], [("e", "u", "v")])
    return GraphOfGroups.make(
        graph,
        {"u": zu, "v": zv},
        {"e": zc},
        {"e": Hom.matrix(zc, zu, [[2]]), "e^-1": Hom.matrix(zc, zv, [[3]])},
    )


def trefoil():
    """Same group on free vertex groups: c -> x^2 and c -> y^3."""
    fu = FreeGroup(1, ("x",))
    fv = FreeGroup(1, ("y",))
    fc = FreeGroup(1, ("c",))
    graph = _graph(["u", "v"], [("e", "u", "v")])
    return GraphOfGroups.make(
        graph,
        {"u": fu, "v": fv},
        {"e": fc},
        {"e": Hom.images(fc, fu, [(1, 1)]), "e^-1": Hom.images(fc, fv, [(1, 1, 1)])},
    )


def dyadic(k):
    """Path v1 - ... - vk, identity toward vi and doubling toward vi+1."""
    vertices = [f"v{i}" for i in range(1, k + 1)]
    groups = {v: FreeAbelian(1, (f"a{i + 1}",)) for i, v in enumerate(vertices)}
    zc = FreeAbelian(1, ("c",))
    half_edges = []
    emap = {}
    egroup = {}
    for i in range(k - 1):
        name = f"e{i + 1}"
        half_edges.append((name, vertices[i], vertices[i + 1]))
        egroup[name] = zc
        emap[name] = Hom.matrix(zc, groups[vertices[i]], [[1]])
        emap[f"{name}^-1"] = Hom.matrix(zc, groups[vertices[i + 1]], [[2]])
    return GraphOfGroups.make(_graph(vertices, half_edges), groups, egroup, emap)


def star3():
    """Center plus three leaves, all Z, identity maps both ways."""
    names = ["c0", "l1", "l2", "l3"]
    groups = {v: FreeAbelian(1, (f"z{i}",)) for i, v in enumerate(names)}
    zc = FreeAbelian(1, ("c",))
    half_edges = [(f"s{i}", "c0", f"l{i}") for i in (1, 2, 3)]
    emap = {}
    egroup = {}
    for i in (1, 2, 3):
        egroup[f"s{i}"] = zc
        emap[f"s{i}"] = Hom.matrix(zc, groups["c0"], [[1]])
        emap[f"s{i}^-1"] = Hom.matrix(zc, groups[f"l{i}"], [[1]])
    return GraphOfGroups.make(_graph(names, half_edges), groups, egroup, emap)


def pushout46():
    """Diagram Z/4 <-id- Z/4 -(x -> b^3)-> Z/6; the right map is not injective."""
    z4u = cyclic_table(4, "a")
    z6v = cyclic_table(6, "b")
    z4e = cyclic_table(4, "c")
    graph = _graph(["u", "v"], [("e", "u", "v")])
    return GraphOfGroups.make(
        graph,
        {"u": z4u, "v": z6v},
        {"e": z4e},
        {
            "e": Hom.table(z4e, z4u, [0, 1, 2, 3]),
            "e^-1": Hom.table(z4e, z6v, [0, 3, 0, 3]),
        },
    )


def z3f2():
    """Two vertices Free(3) and trivial; three Z-edges sending the generator
    to the pairwise commutators on the free side and to 1 on the other.
    The first orbit is the spanning tree, so pi1 is Z^3 * F2."""
    free3 = FreeGroup(3, ("a", "b", "c"))
    triv = FreeGroup(0)
    zg = FreeAbelian(1, ("g",))
    comms = {
        "e1": (1, 2, -1, -2),   # [a, b]
        "e2": (1, 3, -1, -3),   # [a, c]
        "e3": (2, 3, -2, -3),   # [b, c]
    }
    half_edges = [(name, "u", "v") for name in ("e1", "e2", "e3")]
    emap = {}
    for name, word in comms.items():
        emap[name] = Hom.images(zg, free3, [word])
        emap[f"{name}^-1"] = Hom.images(zg, triv, [()])
    return GraphOfGroups.make(
        _graph(["u", "v"], half_edges),
        {"u": free3, "v": triv},
        {name: zg for name in comms},
        emap,
    )


def finite_star():
    """Z/2 and Z/3 leaves included into a Z/6 center; pi1 = Z/6."""
    z6 = cyclic_table(6, "b")
    z2 = cyclic_table(2, "a")
    z3 = cyclic_table(3, "d")
    z2e = cyclic_table(2, "c")
    z3e = cyclic_table(3, "c")
    graph = _graph(["m", "p", "q"], [("s1", "p", "m"), ("s2", "q", "m")])
    return GraphOfGroups.make(
        graph,
        {"m": z6, "p": z2, "q": z3},
        {"s1": z2e, "s2": z3e},
        {
            "s1": Hom.table(z2e, z2, [0, 1]),
            "s1^-1": Hom.table(z2e, z6, [0, 3]),
            "s2": Hom.table(z3e, z3, [0, 1, 2]),
            "s2^-1": Hom.table(z3e, z6, [0, 2, 4]),
        },
    )


def chain48():
    """Z/4 included into Z/8 along a single edge; pi1 = Z/8."""
    z4 = cyclic_table(4, "a")
    z8 = cyclic_table(8, "b")
    z4e = cyclic_table(4, "c")
    graph = _graph(["u", "v"], [("e", "u", "v")])
    return GraphOfGroups.make(
        graph,
        {"u": z4, "v": z8},
        {"e": z4e},
        {
            "e": Hom.table(z4e, z4, [0, 1, 2, 3]),
            "e^-1": Hom.table(z4e, z8, [0, 2, 4, 6]),
        },
    )


def chain39():
    """Z/3 included into Z/9 along a single edge; pi1 = Z/9."""
    z3 = cyclic_table(3, "a")
    z9 = cyclic_table(9, "b")
    z3e = cyclic_table(3, "c")
    graph = _graph(["u", "v"], [("e", "u", "v")])
    return GraphOfGroups.make(
        graph,
        {"u": z3, "v": z9},
        {"e": z3e},
        {
            "e": Hom.table(z3e, z3, [0, 1, 2]),
            "e^-1": Hom.table(z3e, z9, [0, 3, 6]),
        },
    )


def k4_leaf():
    """One Z/2 leaf hitting a factor of Z/2 x Z/2; pi1 = Klein four."""
    k4 = direct_product(cyclic_table(2, "p"), cyclic_table(2, "q"))
    z2 = cyclic_table(2, "a")
    z2e = cyclic_table(2, "c")
    graph = _graph(["m", "p"], [("s", "p", "m")])
    return GraphOfGroups.make(
        graph,
        {"m": k4, "p": z2},
        {"s": z2e},
        {
            "s": Hom.table(z2e, z2, [0, 1]),
            "s^-1": Hom.table(z2e, k4, [0, 2]),
        },
    )


def klein4_star():
    """Two Z/2 leaves hitting the two factors of Z/2 x Z/2; pi1 = Klein four."""
    k4 = direct_product(cyclic_table(2, "p"), cyclic_table(2, "q"))
    z2a = cyclic_table(2, "a")
    z2b = cyclic_table(2, "d")
    z2e = cyclic_table(2, "c")
    graph = _graph(["m", "p", "q"], [("s1", "p", "m"), ("s2", "q", "m")])
    return GraphOfGroups.make(
        graph,
        {"m": k4, "p": z2a, "q": z2b},
        {"s1": z2e, "s2": z2e},
        {
            "s1": Hom.table(z2e, z2a, [0, 1]),
            "s1^-1": Hom.table(z2e, k4, [0, 2]),
            "s2": Hom.table(z2e, z2b, [0, 1]),
            "s2^-1": Hom.table(z2e, k4, [0, 1]),
        },
    )


def torus_whisker(back_matrix=None):
    """Torus HNN vertex u plus a pendant vertex p; the whisker edge is an
    isomorphism on the u side, so contracting it reroutes the loop maps."""
    za = FreeAbelian(1, ("a",))
    zb = FreeAbelian(1, ("b",))
    zc = FreeAbelian(1, ("c",))
    zd = FreeAbelian(1, ("d",))
    graph = _graph(["u", "p"], [("t", "u", "u"), ("w", "u", "p")])
    ident = Hom.matrix(zc, za, [[1]])
    return GraphOfGroups.make(
        graph,
        {"u": za, "p": zb},
        {"t": zc, "w": zd},
        {
            "t": ident,
            "t^-1": ident,
            "w": Hom.matrix(zd, za, [[1]]),
            "w^-1": Hom.matrix(zd, zb, back_matrix or [[1]]),
        },
    )


def lattice_hnn():
    """Z^3 HNN along Z^2: t (p + q, p - q, 0) t^-1 = (p + q, 2q, p + 3q).
    Both maps have Smith diagonal (1, 2), neither square nor unimodular, so
    some middles are outside the image on either side."""
    z3 = FreeAbelian(3, ("a", "b", "c"))
    z2 = FreeAbelian(2, ("p", "q"))
    return hnn(
        z3,
        z2,
        Hom.matrix(z2, z3, [[1, 1], [0, 2], [1, 3]]),
        Hom.matrix(z2, z3, [[1, 1], [1, -1], [0, 0]]),
    )


def folded_hnn():
    """F3 HNN along F2: t (a, b c b^-1) t^-1 = (a b, a c).  Both image
    subgroups fold: a b and a c share their first edge, and b c b^-1 its
    first and last, so folding merges vertices of the wedge."""
    free3 = FreeGroup(3, ("a", "b", "c"))
    free2 = FreeGroup(2, ("p", "q"))
    return hnn(
        free3,
        free2,
        Hom.images(free2, free3, [(1, 2), (1, 3)]),
        Hom.images(free2, free3, [(1,), (2, 3, -2)]),
    )


def cyclic_into_free():
    """F2 HNN along Z: t a t^-1 = a b."""
    free2 = FreeGroup(2, ("a", "b"))
    zc = FreeAbelian(1, ("c",))
    return hnn(free2, zc, Hom.images(zc, free2, [(1, 2)]), Hom.images(zc, free2, [(1,)]))


def free_edge_amalgam():
    """Z (x) and F1 (y) amalgamated along F1: c -> x^2 and c -> y^3, the
    trefoil group once more, with a free edge group mapping into Z."""
    zu = FreeAbelian(1, ("x",))
    fv = FreeGroup(1, ("y",))
    fc = FreeGroup(1, ("c",))
    graph = _graph(["u", "v"], [("e", "u", "v")])
    return GraphOfGroups.make(
        graph,
        {"u": zu, "v": fv},
        {"e": fc},
        {"e": Hom.images(fc, zu, [(2,)]), "e^-1": Hom.images(fc, fv, [(1, 1, 1)])},
    )


def rank_zero_edges():
    """Z^2 (u) and F2 (v) joined by an F0 edge, plus a Z^0 loop at u:
    pi1 = Z^2 * F2 * Z."""
    z2 = FreeAbelian(2, ("a", "b"))
    free2 = FreeGroup(2, ("x", "y"))
    f0, z0 = FreeGroup(0), FreeAbelian(0)
    graph = _graph(["u", "v"], [("e", "u", "v"), ("t", "u", "u")])
    loop = Hom.matrix(z0, z2, [[], []])
    return GraphOfGroups.make(
        graph,
        {"u": z2, "v": free2},
        {"e": f0, "t": z0},
        {
            "e": Hom.images(f0, z2, []),
            "e^-1": Hom.images(f0, free2, []),
            "t": loop,
            "t^-1": loop,
        },
    )


def edge_map_graphs():
    """Reducible graphs whose edge maps cover the class pairs ``graphs()``
    leaves out: Z^2 -> Z^3 (Smith diagonal (1, 2)), F2 -> F3 with folds,
    Z -> F2, F1 -> Z and rank-0 edge groups.  Kept apart from ``graphs()``,
    on whose order the pinch-step digests depend."""
    return [
        lattice_hnn(),
        folded_hnn(),
        cyclic_into_free(),
        free_edge_amalgam(),
        rank_zero_edges(),
    ]


def graphs():
    """Every construction above, once (dyadic at k = 2..5), except
    ``edge_map_graphs()``."""
    return [
        torus(),
        klein(),
        bs12(),
        two_loop_trivial(),
        amalgam23(),
        trefoil(),
        *(dyadic(k) for k in range(2, 6)),
        star3(),
        pushout46(),
        z3f2(),
        finite_star(),
        chain48(),
        chain39(),
        k4_leaf(),
        klein4_star(),
        torus_whisker(),
    ]


def last_first_tree(g):
    """A spanning tree other than the default: orbits taken greedily from
    the largest plus id down, skipping any that would close a cycle."""
    component = {v: v for v in g.graph.vertices}

    def find(v):
        while component[v] != v:
            v = component[v]
        return v

    tree = set()
    for o in reversed(g.orbits()):
        a, b = find(g.graph.d0[o.plus]), find(g.graph.d0[o.minus])
        if a != b:
            component[a] = b
            tree.add(o.plus)
    return frozenset(tree)


def rebased(g):
    """g with ``last_first_tree`` stored and its largest vertex as base."""
    return g.replace(tree=last_first_tree(g), base=max(g.graph.vertices))


# ---------------------------------------------------------------------------
# reference moves: contraction one graph at a time, as the library once did


def reference_contract_edge(g: GraphOfGroups, e: str) -> GraphOfGroups:
    """Contract non-loop edge e; requires f_e to be an isomorphism.

    The merged vertex keeps the far-side group; every other half-edge x
    that started at the removed vertex gets the composite
    f_bar(e) o f_e^-1 o f_x.
    """
    require_valid_gog(g)
    if e not in g.graph.edges:
        raise InvalidStructure(f"no edge {e}")
    if g.graph.is_loop(e):
        raise LoopContraction(f"edge {e} is a loop")
    f_e = g.emap[e]
    if not is_isomorphism(f_e):
        raise NotIso(f"edge map of {e} is not an isomorphism")
    f_bar = g.emap[g.graph.bar[e]]
    reroute = compose(f_bar, inverse(f_e))

    u = g.graph.d0[e]
    removed_orbit = g.orbit_of(e)
    new_graph, merge = contract_edge_graph(g.graph, e)
    new_emap = {}
    for x in new_graph.edges:
        old = g.emap[x]
        new_emap[x] = compose(reroute, old) if g.graph.d0[x] == u else old
    new_vgroup = {v: grp for v, grp in g.vgroup.items() if v != u}
    new_egroup = {p: grp for p, grp in g.egroup.items() if p != removed_orbit.plus}
    new_tree = None
    if g.tree is not None and removed_orbit.plus in g.tree:
        new_tree = g.tree - {removed_orbit.plus}
    return GraphOfGroups.make(
        new_graph,
        new_vgroup,
        new_egroup,
        new_emap,
        base=merge[g.base],
        tree=new_tree,
        provenance=g.provenance,
    )


def reference_collapse_tree(g: GraphOfGroups) -> GraphOfGroups:
    """Contract a whole spanning tree down to a single vertex.

    Per orbit the plus map is tried first, then the minus map; the first
    remaining tree orbit with an isomorphic side is contracted.  Raises
    NotIso naming the offending orbit when none qualifies.
    """
    require_valid_gog(g)
    remaining = sorted(g.tree_orbits())
    current = g
    while remaining:
        progress = None
        for plus in remaining:
            if is_isomorphism(current.emap[plus]):
                progress = plus
                current = reference_contract_edge(current, plus)
                break
            minus = current.graph.bar[plus]
            if is_isomorphism(current.emap[minus]):
                progress = plus
                current = reference_contract_edge(current, minus)
                break
        if progress is None:
            raise NotIso(
                f"no isomorphic side on tree orbit {remaining[0]}; cannot collapse"
            )
        remaining.remove(progress)
    if len(current.graph.vertices) != 1:
        raise AssertionError("tree collapse left several vertices")
    return current


# ---------------------------------------------------------------------------
# seeded families


def _random_map(rng, factors, dst):
    """Element map of a random hom into the abelian table dst from the
    product of Z/f over ``factors``, in ``direct_product`` index order:
    each factor's generator goes to an element whose order divides f."""
    images = [rng.choice([x for x in dst.elements() if dst.power(x, f) == dst.id_index])
              for f in factors]
    mapping = []
    for digits in itertools.product(*(range(f) for f in factors)):
        y = dst.id_index
        for x, k in zip(images, digits):
            y = dst.mul(y, dst.power(x, k))
        mapping.append(y)
    return mapping


def _product(factors, letters):
    """The product of cyclic tables Z/f, one letter per factor."""
    group = cyclic_table(factors[0], letters[0])
    for f, letter in zip(factors[1:], letters[1:]):
        group = direct_product(group, cyclic_table(f, letter))
    return group


def _random_edges(rng, half_edges, vgroup, edge_factors):
    """Edge groups and random edge maps for (name, origin, terminus)
    triples, each edge group the product of Z/f over edge_factors(name)."""
    egroup, emap = {}, {}
    for name, origin, terminus in half_edges:
        factors = edge_factors(name)
        shared = _product(factors, "cd")
        egroup[name] = shared
        emap[name] = Hom.table(shared, vgroup[origin], _random_map(rng, factors, vgroup[origin]))
        emap[f"{name}^-1"] = Hom.table(
            shared, vgroup[terminus], _random_map(rng, factors, vgroup[terminus])
        )
    return egroup, emap


def random_cyclic_tree(rng, n):
    """A tree of n cyclic tables of orders 8-48; each edge group is cyclic,
    of an order dividing its child's, with random (often non-injective)
    maps into both ends."""
    vertices = [f"v{i}" for i in range(n)]
    orders = [rng.randint(8, 48) for _ in vertices]
    vgroup = {v: cyclic_table(orders[i], f"g{i}") for i, v in enumerate(vertices)}
    half_edges = [(f"e{i}", vertices[rng.randrange(i)], vertices[i]) for i in range(1, n)]

    def edge_factors(name):
        child = orders[int(name[1:])]
        return [rng.choice([d for d in range(2, child + 1) if child % d == 0])]

    egroup, emap = _random_edges(rng, half_edges, vgroup, edge_factors)
    return GraphOfGroups.make(_graph(vertices, half_edges), vgroup, egroup, emap)


def random_mixed_tree(rng, n):
    """A tree of n cyclic tables of orders 2-12 plus up to two extra edges;
    each edge group is cyclic, of a random order, and each edge map sends
    its generator to a random element whose order divides it, so a map is
    an isomorphism, one-to-one only, onto only, or neither.  The tree is
    stored on about half of the graphs."""
    vertices = [f"v{i}" for i in range(n)]
    orders = {v: rng.choice([2, 3, 4, 6, 12]) for v in vertices}
    vgroup = {v: cyclic_table(orders[v], f"g{i}") for i, v in enumerate(vertices)}
    half_edges = [(f"e{i}", vertices[rng.randrange(i)], vertices[i]) for i in range(1, n)]
    half_edges += [(f"x{k}", rng.choice(vertices), rng.choice(vertices))
                   for k in range(rng.randint(0, 2))]

    def cyclic_hom(src, dst):
        m = dst.order()
        step = rng.choice([k for k in range(m) if k * src.order() % m == 0])
        return Hom.table(src, dst, [step * i % m for i in range(src.order())])

    egroup, emap = {}, {}
    for name, origin, terminus in half_edges:
        shared = cyclic_table(rng.choice([orders[origin], orders[terminus], rng.choice([1, 2, 3, 4, 6, 12])]), "c")
        egroup[name] = shared
        emap[name] = cyclic_hom(shared, vgroup[origin])
        emap[f"{name}^-1"] = cyclic_hom(shared, vgroup[terminus])
    tree = frozenset(f"e{i}" for i in range(1, n)) if rng.random() < 0.5 else None
    return GraphOfGroups.make(_graph(vertices, half_edges), vgroup, egroup, emap, tree=tree)


def random_pushout(rng):
    """Z/a <-id- Z/a -> Z/b with a random right map, injective or not."""
    a, b = rng.randint(2, 12), rng.randint(2, 12)
    za, zb, ze = cyclic_table(a, "a"), cyclic_table(b, "b"), cyclic_table(a, "c")
    return GraphOfGroups.make(
        _graph(["u", "v"], [("e", "u", "v")]),
        {"u": za, "v": zb},
        {"e": ze},
        {"e": Hom.table(ze, za, list(range(a))),
         "e^-1": Hom.table(ze, zb, _random_map(rng, [a], zb))},
    )


def random_product_diagram(rng, loop=False):
    """Two vertices joined by one or two edges, or with ``loop`` one vertex
    with a loop edge; each group is a product of one or two cyclic tables
    of orders 2-6, and each edge map a random hom."""
    vertices = ["v"] if loop else ["u", "v"]
    vgroup = {
        v: _product([rng.randint(2, 6) for _ in range(rng.randint(1, 2))], "pq")
        for v in vertices
    }
    if loop:
        half_edges = [("t", "v", "v")]
    else:
        half_edges = [(f"e{i}", "u", "v") for i in range(rng.randint(1, 2))]

    def edge_factors(name):
        return [rng.randint(2, 6) for _ in range(rng.randint(1, 2))]

    egroup, emap = _random_edges(rng, half_edges, vgroup, edge_factors)
    return GraphOfGroups.make(_graph(vertices, half_edges), vgroup, egroup, emap)


def random_elimination_tree(rng):
    """A tree of free abelian groups of rank 0-2 on 2-4 vertices; each
    edge group maps identically onto its child and by a random matrix into
    its parent.  pi1 = Z^rank(root), which is returned beside the graph."""
    n = rng.randint(2, 4)
    vertices = [f"v{i}" for i in range(n)]
    ranks = {v: rng.randint(0, 2) for v in vertices}
    half_edges = [(f"e{i}", vertices[rng.randrange(i)], vertices[i]) for i in range(1, n)]
    vgroup = {v: FreeAbelian(ranks[v]) for v in vertices}
    egroup, emap = {}, {}
    for name, parent, child in half_edges:
        shared = FreeAbelian(ranks[child])
        egroup[name] = shared
        emap[f"{name}^-1"] = Hom.matrix(
            shared, vgroup[child],
            [[1 if i == j else 0 for j in range(shared.rank)] for i in range(ranks[child])],
        )
        emap[name] = Hom.matrix(
            shared, vgroup[parent],
            [[rng.randint(-2, 2) for _ in range(shared.rank)] for _ in range(ranks[parent])],
        )
    g = GraphOfGroups.make(
        _graph(vertices, half_edges), vgroup, egroup, emap,
        tree=frozenset(name for name, _, _ in half_edges),
    )
    return g, ranks["v0"]


def abel_cases():
    """(case id, diagram) for every line of the abel-convert digest file:
    seeded cyclic trees, pushouts, two-vertex and loop diagrams over
    products of cyclic tables, and the elimination trees above."""
    families = (
        ("tree", 1, 8, lambda rng: random_cyclic_tree(rng, rng.randint(2, 3))),
        ("pushout", 2, 30, random_pushout),
        ("pair", 3, 30, random_product_diagram),
        ("loop", 4, 30, lambda rng: random_product_diagram(rng, loop=True)),
        ("elim", 4242, 30, lambda rng: random_elimination_tree(rng)[0]),
    )
    for name, seed, count, build in families:
        rng = random.Random(seed)
        for i in range(count):
            yield f"{name}#{i}", build(rng)
