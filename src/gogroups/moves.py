"""Structural transformations on graphs of groups.

- contract_edge: contract a non-loop edge whose map on the contracted
  side is an isomorphism, rerouting the maps at the removed vertex
  through f_bar(e) o f_e^-1.
- collapse_tree: iterate contraction over a spanning tree (reorienting
  per orbit so the isomorphic side is contracted), down to one vertex.
- convert_diagram: replace vertex and edge groups by their images in a
  quotient oracle, turning a diagram into a graph of groups; exact when
  the oracle is exact, and every output carries the soundness tag.
- decompose_along_edge: present the group as an amalgam or HNN extension
  over a chosen orbit.
"""

from __future__ import annotations

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
    presentation_letters,
    require_valid_gog,
)
from .graph import AbstractGraph, EdgeOrbit, bfs_parents, contract_edge_graph, orbits
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


def collapse_tree(g: GraphOfGroups) -> GraphOfGroups:
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
                current = contract_edge(current, plus)
                break
            minus = current.graph.bar[plus]
            if is_isomorphism(current.emap[minus]):
                progress = plus
                current = contract_edge(current, minus)
                break
        if progress is None:
            raise NotIso(
                f"no isomorphic side on tree orbit {remaining[0]}; cannot collapse"
            )
        remaining.remove(progress)
    assert len(current.graph.vertices) == 1, "tree collapse left several vertices"
    return current


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


def _perm_inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _convert_by_enumeration(d: GraphOfGroups, oracle: QuotientOracle) -> GraphOfGroups:
    pres = pi1_presentation(d)
    table = quotients.coset_enumeration(pres, oracle.cap)
    n = table.order
    vertex_letters, edge_letters = presentation_letters(d)
    letter_perm = {}
    for i, name in enumerate((l.name for l in pres.generators)):
        letter_perm[name] = tuple(row[2 * i] for row in table.table)
    identity = tuple(range(n))

    def perm_of(v: str, x) -> tuple:
        p = identity
        for gi, sign in d.vgroup[v].spell(x):
            q = letter_perm[vertex_letters[v][gi].name]
            p = _perm_mul(p, q if sign > 0 else _perm_inv(q))
        return p

    def closure(perms, names):
        def label(_p, word):
            return "*".join(names[gi] for gi in word) or "1"

        return table_from_closure(perms, _perm_mul, identity, label)

    new_vgroup = {}
    vertex_index = {}
    for v in sorted(d.graph.vertices):
        letters = vertex_letters.get(v, ())
        perms = [letter_perm[l.name] for l in letters]
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
        t_perm = letter_perm[edge_letters[o.plus].name]
        if o.plus in d.tree_orbits():
            assert t_perm == identity, "tree letter does not die in the quotient"
        plus_map = []
        minus_map = []
        t_inv = _perm_inv(t_perm)
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
        assert hom_is_injective(new_emap[o.plus])
        assert hom_is_injective(new_emap[o.minus])

    tag = f"converted: finite enumeration (cap {oracle.cap}), pi1 order {n} (exact)"
    return GraphOfGroups.make(
        d.graph,
        new_vgroup,
        new_egroup,
        new_emap,
        base=d.base,
        tree=d.tree,
        provenance=d.provenance + (tag,),
    )


@dataclass(frozen=True)
class _AbelianImage:
    """Image of a subgroup in the abelianized fundamental group.

    torsion: invariant factors (>= 2) of the image; free: free rank;
    basis: one ambient exponent vector per kept cyclic/free factor,
    torsion factors first.
    """

    torsion: tuple
    free: int
    basis: tuple

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


def _image_in_abelianization(vectors, relator_rows, ambient):
    """Structure of the subgroup of Z^ambient / (row lattice) generated by
    the given vectors."""
    k = len(vectors)
    if k == 0:
        return _AbelianImage((), 0, ())
    stacked = [
        [vectors[j][i] for j in range(k)] + [row[i] for row in relator_rows]
        for i in range(ambient)
    ]
    kernel = quotients.int_kernel(stacked)
    projected = [vec[:k] for vec in kernel]
    p_matrix = [[vec[i] for vec in projected] for i in range(k)] if projected else [
        [] for _ in range(k)
    ]
    if projected:
        u, dmat, _ = quotients.smith_normal_form(p_matrix)
        diag = [dmat[i][i] if i < len(projected) else 0 for i in range(k)]
    else:
        u = quotients.mat_identity(k)
        diag = [0] * k
    u_inv = quotients.mat_int_inverse(u)
    torsion = []
    basis = []
    free_basis = []
    free = 0
    for j in range(k):
        dj = diag[j]
        coeffs = [u_inv[i][j] for i in range(k)]
        ambient_vec = tuple(
            sum(coeffs[i] * vectors[i][r] for i in range(k)) for r in range(ambient)
        )
        if dj == 1:
            continue
        if dj == 0:
            free += 1
            free_basis.append(ambient_vec)
        else:
            torsion.append(dj)
            basis.append(ambient_vec)
    return _AbelianImage(tuple(torsion), free, tuple(basis) + tuple(free_basis))


def _coords_in_image(image: _AbelianImage, target, relator_rows, ambient):
    """Coordinates of an ambient vector over the image's kept basis."""
    cols = [list(b) for b in image.basis] + [list(r) for r in relator_rows]
    if not cols:
        if any(target):
            raise UnrepresentableImage("nonzero vector in a trivial image")
        return []
    matrix = [[c[i] for c in cols] for i in range(ambient)]
    solution = quotients.solve_int(matrix, list(target))
    if solution is None:
        raise UnrepresentableImage("vector does not lie in the expected image")
    coords = solution[: len(image.basis)]
    for i, dk in enumerate(image.torsion):
        coords[i] %= dk
    return coords


def _mixed_radix_index(coords, factors):
    idx = 0
    for c, dk in zip(coords, factors):
        idx = idx * dk + (c % dk)
    return idx


def _inclusion_hom(edge: _AbelianImage, vertex: _AbelianImage, relator_rows, ambient,
                   edge_group, vertex_group):
    if isinstance(edge_group, FreeAbelian) and edge_group.rank == 0:
        return Hom.trivial(edge_group, vertex_group)
    coords = [
        _coords_in_image(vertex, b, relator_rows, ambient) for b in edge.basis
    ]
    if isinstance(vertex_group, FreeAbelian):
        if edge.torsion:
            raise UnrepresentableImage("torsion edge image in a free abelian vertex image")
        return Hom.matrix(
            edge_group,
            vertex_group,
            [[coords[j][i] for j in range(len(coords))] for i in range(vertex_group.rank)],
        )
    if edge.free:
        raise UnrepresentableImage("free edge image in a finite vertex image")
    mapping = []
    for idx in range(edge_group.order()):
        digits = []
        rest = idx
        for dk in reversed(edge.torsion):
            digits.append(rest % dk)
            rest //= dk
        digits.reverse()
        total = [0] * len(vertex.torsion)
        for digit, col in zip(digits, coords):
            for i in range(len(total)):
                total[i] = (total[i] + digit * col[i]) % vertex.torsion[i]
        mapping.append(_mixed_radix_index(total, vertex.torsion))
    return Hom.table(edge_group, vertex_group, mapping)


def _convert_by_abelianization(d: GraphOfGroups, oracle: QuotientOracle) -> GraphOfGroups:
    pres = pi1_presentation(d)
    relator_rows = quotients.exponent_matrix(pres)
    ambient = len(pres.generators)
    vertex_letters, _ = presentation_letters(d)
    name_index = {l.name: i for i, l in enumerate(pres.generators)}

    def unit(name):
        vec = [0] * ambient
        vec[name_index[name]] = 1
        return tuple(vec)

    def word_vector(v, x):
        vec = [0] * ambient
        for gi, sign in d.vgroup[v].spell(x):
            vec[name_index[vertex_letters[v][gi].name]] += sign
        return tuple(vec)

    vertex_images = {}
    new_vgroup = {}
    for v in sorted(d.graph.vertices):
        vectors = [unit(l.name) for l in vertex_letters.get(v, ())]
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
        new_emap[o.plus] = _inclusion_hom(
            image, vertex_images[origin], relator_rows, ambient, edge_group, new_vgroup[origin]
        )
        new_emap[o.minus] = _inclusion_hom(
            image, vertex_images[terminus], relator_rows, ambient, edge_group, new_vgroup[terminus]
        )
        assert hom_is_injective(new_emap[o.plus])
        assert hom_is_injective(new_emap[o.minus])

    tag = f"converted: abelianization oracle ({oracle.soundness()})"
    return GraphOfGroups.make(
        d.graph,
        new_vgroup,
        new_egroup,
        new_emap,
        base=d.base,
        tree=d.tree,
        provenance=d.provenance + (tag,),
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


def _remove_orbit(g: GraphOfGroups, plus: str) -> AbstractGraph:
    dropped = {plus, g.graph.bar[plus]}
    kept = g.graph.edges - dropped
    return AbstractGraph.make(
        g.graph.vertices,
        {e: g.graph.bar[e] for e in kept},
        {e: g.graph.d0[e] for e in kept},
    )


def _components(graph: AbstractGraph):
    seen = set()
    parts = []
    for v in sorted(graph.vertices):
        if v not in seen:
            part = frozenset(bfs_parents(graph, v))
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
    naming = presentation_letters(g)
    glue = edge_relators(g, plus, naming)
    removed = _remove_orbit(g, plus)
    parts = _components(removed)

    if len(parts) == 1:
        inner = _induced(g, parts[0], plus)
        base_tree = inner.tree_orbits()
        left = pi1_presentation(inner, tree=base_tree, naming=naming)
        return Decomposition(
            shape="hnn",
            left=left,
            right=None,
            orbit=plus,
            edge_group=g.egroup[plus],
            attach_plus=g.emap[plus],
            attach_minus=g.emap[g.graph.bar[plus]],
            glue_letter=naming[1][plus],
            glue_relators=glue,
            tree_used=base_tree,
        )

    assert len(parts) == 2, "edge removal split the graph into >2 pieces"
    parts.sort(key=min)
    sides = []
    side_trees = []
    for part in parts:
        inner = _induced(g, part, plus)
        side_tree = inner.tree_orbits()
        side_trees.append(side_tree)
        sides.append(pi1_presentation(inner, tree=side_tree, naming=naming))
    tree_used = side_trees[0] | side_trees[1] | {plus}
    return Decomposition(
        shape="amalgam",
        left=sides[0],
        right=sides[1],
        orbit=plus,
        edge_group=g.egroup[plus],
        attach_plus=g.emap[plus],
        attach_minus=g.emap[g.graph.bar[plus]],
        glue_letter=naming[1][plus],
        glue_relators=glue,
        tree_used=tree_used,
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
