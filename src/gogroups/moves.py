"""Structural transformations on graphs of groups.

- contract_edge: contract a non-loop edge whose map on the contracted
  side is an isomorphism, rerouting the maps at the removed vertex
  through f_bar(e) o f_e^-1.
- collapse_tree: contract a spanning tree down to one vertex in one pass
  (per orbit the isomorphic side is contracted), over mutable copies of
  the graph's data, building one graph of groups at the end; the result
  is kept on the input.  Both moves share one contraction routine.
- convert_diagram: replace vertex and edge groups by their images in a
  quotient oracle, turning a diagram into a graph of groups; exact when
  the oracle is exact, and every output carries the soundness tag.
- decompose_along_edge: present the group as an amalgam or HNN extension
  over a chosen orbit.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from . import quotients
from .errors import (
    InvalidStructure,
    LoopContraction,
    NotIso,
    OracleIncomplete,
    UnrepresentableImage,
)
from .gog import (
    GraphOfGroups,
    Letter,
    Presentation,
    edge_relators,
    pi1_presentation,
    require_valid_gog,
    spell_in_letters,
)
from .graph import AbstractGraph, EdgeOrbit, bfs_parents, orbits
from .groups import (
    FreeAbelian,
    GroupDesc,
    Hom,
    compose,
    cyclic_table,
    direct_product,
    hom_is_injective,
    inverse,
    is_isomorphism,
    table_from_closure,
)
from .quotients import QuotientOracle

# re-exported for callers that think of oracles as part of the move set
__all__ = [
    "QuotientOracle",
    "Decomposition",
    "contract_edge",
    "collapse_tree",
    "convert_diagram",
    "decompose_along_edge",
    "reassemble",
]


class _Contraction:
    """Edges of a valid graph of groups contracted one at a time, over
    mutable copies of its origins, edge maps, vertex groups and edge groups
    and an index of the half-edges leaving each vertex; ``result`` builds
    the contracted graph of groups once, however many edges went."""

    def __init__(self, g: GraphOfGroups):
        self.g = g
        self.d0 = dict(g.graph.d0)
        self.emap = dict(g.emap)
        self.vgroup = dict(g.vgroup)
        self.egroup = dict(g.egroup)
        self.out = {v: set() for v in g.graph.vertices}
        for x, v in self.d0.items():
            self.out[v].add(x)
        self.base = g.base
        self.tree = None if g.tree is None else set(g.tree)

    def contract(self, e: str) -> set:
        """Contract the non-loop half-edge e, whose map f_e is an
        isomorphism: its origin u merges into its terminus, which keeps its
        group, and every other half-edge x leaving u gets the composite
        f_bar(e) o f_e^-1 o f_x.  Returns the half-edges moved.  A stored
        tree loses the orbit of e, or is dropped when e is not in it."""
        bar = self.g.graph.bar[e]
        u, v = self.d0.pop(e), self.d0.pop(bar)
        reroute = compose(self.emap.pop(bar), inverse(self.emap.pop(e)))
        moved = self.out.pop(u)
        moved.discard(e)
        self.out[v].discard(bar)
        self.out[v] |= moved
        for x in moved:
            self.d0[x] = v
            self.emap[x] = compose(reroute, self.emap[x])
        del self.vgroup[u]
        plus = min(e, bar)
        del self.egroup[plus]
        if self.base == u:
            self.base = v
        if self.tree is not None:
            if plus in self.tree:
                self.tree.remove(plus)
            else:
                self.tree = None
        return moved

    def result(self) -> GraphOfGroups:
        bar = self.g.graph.bar
        graph = AbstractGraph.make(self.out.keys(), {x: bar[x] for x in self.d0}, self.d0)
        return GraphOfGroups.make(
            graph,
            self.vgroup,
            self.egroup,
            self.emap,
            base=self.base,
            tree=self.tree,
            provenance=self.g.provenance,
        )


def contract_edge(g: GraphOfGroups, e: str) -> GraphOfGroups:
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
    if not is_isomorphism(g.emap[e]):
        raise NotIso(f"edge map of {e} is not an isomorphism")
    contraction = _Contraction(g)
    contraction.contract(e)
    return contraction.result()


def collapse_tree(g: GraphOfGroups) -> GraphOfGroups:
    """Contract a whole spanning tree down to a single vertex.

    Each step contracts the least remaining tree orbit with an isomorphic
    side, plus side first.  Raises NotIso naming the least remaining orbit
    when none qualifies.  A graph of one vertex is returned as it is; any
    other keeps its collapse (``GraphOfGroups._collapsed``).
    """
    require_valid_gog(g)
    return g if len(g.graph.vertices) == 1 else g._collapsed


def _collapse(g: GraphOfGroups) -> GraphOfGroups:
    """``collapse_tree`` in one pass over one ``_Contraction``.

    Contracting e reroutes the maps leaving its origin through
    f_bar(e) o f_e^-1.  When f_bar(e) is an isomorphism, so is the
    reroute, and each moved map stays an isomorphism or not; otherwise a
    moved map may gain or lose being one, and the orbits of the moved
    half-edges are looked at again.  The qualifying orbits wait in a heap
    by plus id, and an entry whose orbit went or stopped qualifying is
    skipped when it comes up.
    """
    bar = g.graph.bar
    contraction = _Contraction(g)

    def side(plus):
        for half in (plus, bar[plus]):
            if is_isomorphism(contraction.emap[half]):
                return half
        return None

    pending = {plus: side(plus) for plus in sorted(g.tree_orbits())}
    ready = [plus for plus, half in pending.items() if half is not None]  # sorted, so a heap
    while pending:
        while ready and pending.get(ready[0]) is None:
            heapq.heappop(ready)
        if not ready:
            raise NotIso(f"no isomorphic side on tree orbit {min(pending)}; cannot collapse")
        half = pending.pop(heapq.heappop(ready))
        keeps = is_isomorphism(contraction.emap[bar[half]])
        moved = contraction.contract(half)
        if keeps:
            continue
        for x in moved:
            orbit = min(x, bar[x])
            if orbit in pending:
                was, pending[orbit] = pending[orbit], side(orbit)
                if was is None and pending[orbit] is not None:
                    heapq.heappush(ready, orbit)
    if len(contraction.out) != 1:
        raise AssertionError("tree collapse left several vertices")
    return contraction.result()


# ---------------------------------------------------------------------------
# diagram conversion


def convert_diagram(d: GraphOfGroups, oracle: QuotientOracle) -> GraphOfGroups:
    """Replace vertex/edge groups by their images in the oracle quotient.

    Vertex groups become im(G_v -> pi1 -> quotient), edge groups the
    image of the origin-side composite of the plus half-edge; new edge
    maps are the induced inclusions (the minus side conjugated by the
    orbit letter, which matters only for non-tree orbits under an exact
    oracle).  The result always passes classify() as a graph of groups
    and carries the oracle's soundness tag in its provenance.
    """
    require_valid_gog(d)
    if oracle.kind == "finite_enumeration":
        return _convert_by_enumeration(d, oracle)
    if oracle.kind == "abelianization":
        return _convert_by_abelianization(d, oracle)
    pres = pi1_presentation(d)
    if pres.relators:
        raise OracleIncomplete(
            "free-reduction oracle is only applicable to relator-free presentations"
        )
    return d.replace(provenance=d.provenance + (f"converted: {oracle.soundness()}",))


def _perm_mul(p, q):
    # right actions compose left to right
    return tuple(q[c] for c in p)


def _convert_by_enumeration(d: GraphOfGroups, oracle: QuotientOracle) -> GraphOfGroups:
    table = quotients.coset_enumeration(pi1_presentation(d), oracle.cap)
    n = table.order
    vertex_letters, edge_letters = d._naming

    identity = tuple(range(n))

    def perm_of(v: str, x) -> tuple:
        return table.permutation(spell_in_letters(d.vgroup[v], vertex_letters.get(v, ()), x))

    def closure(perms, names):
        def label(_p, word):
            return "*".join(names[gi] for gi in word) or "1"

        return table_from_closure(perms, _perm_mul, identity, label)

    new_vgroup = {}
    vertex_index = {}
    for v in sorted(d.graph.vertices):
        letters = vertex_letters.get(v, ())
        perms = [table.permutation(((l.name, 1),)) for l in letters]
        vtable, elems = closure(perms, [l.name for l in letters])
        new_vgroup[v] = vtable
        vertex_index[v] = {p: i for i, p in enumerate(elems)}

    new_egroup = {}
    new_emap = {}
    for o in orbits(d.graph):
        origin = d.graph.d0[o.plus]
        terminus = d.graph.d0[o.minus]
        shared = d.egroup[o.plus]
        gen_perms = [perm_of(origin, d.emap[o.plus].apply(c)) for c in shared.generators()]
        etable, eelems = closure(gen_perms, [f"c{i + 1}" for i in range(len(gen_perms))])
        new_egroup[o.plus] = etable
        t = edge_letters[o.plus].name
        t_perm = table.permutation(((t, 1),))
        if o.plus in d.tree_orbits():
            if t_perm != identity:
                raise AssertionError("tree letter does not die in the quotient")
        plus_map = []
        minus_map = []
        t_inv = table.permutation(((t, -1),))
        for p in eelems:
            if p not in vertex_index[origin]:
                raise UnrepresentableImage(
                    f"edge image at {o.plus} escapes the origin vertex image"
                )
            plus_map.append(vertex_index[origin][p])
            conj = _perm_mul(_perm_mul(t_inv, p), t_perm)
            if conj not in vertex_index[terminus]:
                raise UnrepresentableImage(
                    f"conjugated edge image at {o.minus} escapes the terminus vertex image"
                )
            minus_map.append(vertex_index[terminus][conj])
        new_emap[o.plus] = Hom.table(etable, new_vgroup[origin], plus_map)
        new_emap[o.minus] = Hom.table(etable, new_vgroup[terminus], minus_map)
        if not (hom_is_injective(new_emap[o.plus]) and hom_is_injective(new_emap[o.minus])):
            raise AssertionError(
                f"finite enumeration: the converted edge maps of orbit {o.plus} are not both injective"
            )

    tag = f"converted: finite enumeration (cap {oracle.cap}), pi1 order {n} (exact)"
    return d.replace(
        vgroup=new_vgroup, egroup=new_egroup, emap=new_emap, provenance=d.provenance + (tag,)
    )


@dataclass(frozen=True)
class _AbelianImage:
    """Image of a subgroup in the abelianized fundamental group: one
    lattice, read by every question asked of it.

    torsion: invariant factors (>= 2) of the image; free: free rank;
    basis: one ambient exponent vector per kept cyclic/free factor,
    torsion factors first.  The image is computed from ``form``, the Smith
    form of its k generator vectors beside the relator rows (None when
    k = 0); ``lead`` holds the first k rows of that form's V, and
    ``factor_rows`` the rows of the cokernel form's U that give the kept
    factors, in ``basis`` order.
    """

    torsion: tuple
    free: int
    basis: tuple
    form: quotients.SmithForm = None
    lead: list = ()
    factor_rows: list = ()

    def group(self) -> GroupDesc:
        if self.torsion and self.free:
            raise UnrepresentableImage(
                f"image Z^{self.free} x {'x'.join(f'Z/{d}' for d in self.torsion)} "
                "is neither free abelian nor finite"
            )
        if self.torsion:
            g = cyclic_table(self.torsion[0])
            for dk in self.torsion[1:]:
                g = direct_product(g, cyclic_table(dk))
            return g
        return FreeAbelian(self.free)

    def coords(self, target) -> list:
        """Coordinates of an ambient vector over ``basis``, torsion ones
        reduced mod their factor.  The form's U-side step gives z, ``lead``
        maps it to coefficients of the generator vectors, and
        ``factor_rows`` map those onto the kept factors."""
        if self.form is None:
            if any(target):
                raise UnrepresentableImage("nonzero vector in a trivial image")
            return []
        z = self.form.scaled(target)
        if z is None:
            raise UnrepresentableImage("vector does not lie in the expected image")
        coords = quotients.mat_vec(self.factor_rows, quotients.mat_vec(self.lead, z))
        for i, dk in enumerate(self.torsion):
            coords[i] %= dk
        return coords


def _image_in_abelianization(vectors, relator_rows, ambient):
    """Structure of the subgroup of Z^ambient / (row lattice) generated by
    the given vectors.  The kernel of the stacked matrix [vectors | relator
    rows], cut to its first k entries, spans the relations among the
    vectors, and the cokernel of those relations is the image."""
    k = len(vectors)
    if k == 0:
        return _AbelianImage((), 0, ())
    stacked = quotients.SmithForm([
        [vectors[j][i] for j in range(k)] + [row[i] for row in relator_rows]
        for i in range(ambient)
    ])
    lead = stacked.v_rows(k)
    # the kernel is spanned by the columns of V past the nonzero diagonal
    rank = sum(1 for dj in stacked.diagonal if dj)
    relations = quotients.SmithForm([row[rank:] for row in lead])
    # the diagonal puts every factor 1 first, then torsion, then free ones
    kept = [(i, dj, coeffs) for i, (dj, coeffs) in enumerate(relations.cokernel()) if dj != 1]
    basis = tuple(
        tuple(sum(c * vec[r] for c, vec in zip(coeffs, vectors)) for r in range(ambient))
        for _, _, coeffs in kept
    )
    torsion = tuple(dj for _, dj, _ in kept if dj)
    return _AbelianImage(torsion, len(kept) - len(torsion), basis, stacked, lead,
                         [relations.u[i] for i, _, _ in kept])


def _inclusion_hom(edge: _AbelianImage, vertex: _AbelianImage, edge_group, vertex_group):
    if isinstance(edge_group, FreeAbelian) and edge_group.rank == 0:
        return Hom.trivial(edge_group, vertex_group)
    coords = [vertex.coords(b) for b in edge.basis]
    if isinstance(vertex_group, FreeAbelian):
        if edge.torsion:
            raise UnrepresentableImage("torsion edge image in a free abelian vertex image")
        return Hom.images(edge_group, vertex_group, [tuple(c) for c in coords])
    if edge.free:
        raise UnrepresentableImage("free edge image in a finite vertex image")
    # edge elements in index order: mixed-radix digits over the edge factors
    mapping = []
    for digits in itertools.product(*(range(dk) for dk in edge.torsion)):
        idx = 0
        for i, dk in enumerate(vertex.torsion):
            idx = idx * dk + sum(digit * col[i] for digit, col in zip(digits, coords)) % dk
        mapping.append(idx)
    return Hom.table(edge_group, vertex_group, mapping)


def _convert_by_abelianization(d: GraphOfGroups, oracle: QuotientOracle) -> GraphOfGroups:
    pres = pi1_presentation(d)
    relator_rows = quotients.exponent_matrix(pres)
    ambient = len(pres.generators)
    vertex_letters, _ = d._naming

    def word_vector(v, x):
        return quotients.word_exponent_vector(
            pres, spell_in_letters(d.vgroup[v], vertex_letters.get(v, ()), x)
        )

    vertex_images = {}
    new_vgroup = {}
    for v in sorted(d.graph.vertices):
        # each chosen generator spells as its own letter: a unit vector
        vectors = [word_vector(v, x) for x in d.vgroup[v].generators()]
        image = _image_in_abelianization(vectors, relator_rows, ambient)
        vertex_images[v] = image
        new_vgroup[v] = image.group()

    new_egroup = {}
    new_emap = {}
    for o in orbits(d.graph):
        origin = d.graph.d0[o.plus]
        terminus = d.graph.d0[o.minus]
        shared = d.egroup[o.plus]
        vectors = [word_vector(origin, d.emap[o.plus].apply(c)) for c in shared.generators()]
        image = _image_in_abelianization(vectors, relator_rows, ambient)
        edge_group = image.group()
        new_egroup[o.plus] = edge_group
        for half, end in ((o.plus, origin), (o.minus, terminus)):
            new_emap[half] = _inclusion_hom(image, vertex_images[end], edge_group, new_vgroup[end])
            if not hom_is_injective(new_emap[half]):
                raise AssertionError(f"abelianization: the converted edge map of {half} is not injective")

    tag = f"converted: abelianization oracle ({oracle.soundness()})"
    return d.replace(
        vgroup=new_vgroup, egroup=new_egroup, emap=new_emap, provenance=d.provenance + (tag,)
    )


# ---------------------------------------------------------------------------
# decomposition along an edge


@dataclass(frozen=True)
class Decomposition:
    """pi1(g) as an amalgam (edge removal disconnects) or HNN extension.

    ``glue_relators`` are the removed orbit's edge relations in the
    ambient letter names; reassemble() concatenates everything back.
    """

    shape: str                  # "amalgam" | "hnn"
    left: Presentation
    right: Presentation         # None for HNN
    orbit: str                  # plus half-edge id
    edge_group: GroupDesc
    attach_plus: Hom
    attach_minus: Hom
    glue_letter: Letter
    glue_relators: tuple
    tree_used: frozenset        # spanning tree of g realizing this split


def _components(g: GraphOfGroups, without: str):
    """Vertex sets of the components of g once the orbit of ``without``
    is removed, each found by a BFS from its least vertex, in order of
    that vertex."""
    kept = g.graph.edges - {without, g.graph.bar[without]}
    seen = set()
    parts = []
    for v in sorted(g.graph.vertices):
        if v not in seen:
            part = frozenset(bfs_parents(g.graph, v, kept))
            seen |= part
            parts.append(part)
    return parts


def _induced(g: GraphOfGroups, vertices: frozenset, without: str) -> GraphOfGroups:
    dropped = {without, g.graph.bar[without]}
    kept = {e for e in g.graph.edges if e not in dropped and g.graph.d0[e] in vertices}
    graph = AbstractGraph.make(
        vertices,
        {e: g.graph.bar[e] for e in kept},
        {e: g.graph.d0[e] for e in kept},
    )
    plus_ids = {EdgeOrbit.of(graph, e).plus for e in kept}
    return GraphOfGroups.make(
        graph,
        {v: g.vgroup[v] for v in vertices},
        {p: g.egroup[p] for p in plus_ids},
        {e: g.emap[e] for e in kept},
        base=min(vertices),
    )


def decompose_along_edge(g: GraphOfGroups, orbit) -> Decomposition:
    """Split pi1(g) along one edge orbit.

    Removal disconnecting the graph gives an amalgam of the two sides'
    fundamental groups over the edge group; otherwise an HNN extension of
    the remaining graph's fundamental group.
    """
    require_valid_gog(g)
    plus = orbit.plus if isinstance(orbit, EdgeOrbit) else orbit
    if plus not in g.graph.edges:
        raise InvalidStructure(f"no edge orbit {plus}")
    plus = EdgeOrbit.of(g.graph, plus).plus
    naming = g._naming
    glue = edge_relators(g, plus, naming)
    parts = _components(g, plus)
    if len(parts) > 2:
        raise AssertionError("edge removal split the graph into >2 pieces")
    sides = [_induced(g, part, plus) for part in parts]
    tree_used = frozenset().union(*(side.tree_orbits() for side in sides))
    presentations = [pi1_presentation(side, naming=naming) for side in sides]
    amalgam = len(parts) == 2
    return Decomposition(
        shape="amalgam" if amalgam else "hnn",
        left=presentations[0],
        right=presentations[1] if amalgam else None,
        orbit=plus,
        edge_group=g.egroup[plus],
        attach_plus=g.emap[plus],
        attach_minus=g.emap[g.graph.bar[plus]],
        glue_letter=naming[1][plus],
        glue_relators=glue,
        tree_used=(tree_used | {plus}) if amalgam else tree_used,
    )


def reassemble(dec: Decomposition) -> Presentation:
    """Glue the decomposition back: sides, the orbit letter, the orbit's
    edge relations, and (for an amalgam) the tree relator killing it."""
    generators = list(dec.left.generators)
    relators = list(dec.left.relators)
    if dec.right is not None:
        generators.extend(dec.right.generators)
        relators.extend(dec.right.relators)
    generators.append(dec.glue_letter)
    relators.extend(dec.glue_relators)
    if dec.shape == "amalgam":
        relators.append(((dec.glue_letter.name, 1),))
    return Presentation(tuple(generators), tuple(relators))
