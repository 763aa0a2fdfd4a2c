"""Graphs of groups and diagrams of groups, with generation of the
fundamental-group presentation relative to a spanning tree and basepoint.

Relation convention used everywhere downstream (words, moves, analysis):

    t_e * f_bar(e)(c) * t_e^-1 = f_e(c)      for c in the edge group,
    t_bar(e) = t_e^-1,  and  t_e = 1 on spanning-tree orbits,

with e the orbit's plus half-edge.  Any self-consistent convention yields
isomorphic groups; this one is pinned so that pinch reduction and relator
replay agree letter for letter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from .errors import InvalidStructure, SpellingFailure, UnsupportedHom
from .graph import (
    AbstractGraph,
    EdgeOrbit,
    ValidationReport,
    bfs_parents,
    orbits,
    spanning_tree,
    validate_graph,
)
from .groups import FiniteTable, FreeAbelian, GroupDesc, hom_is_injective
from .quotients import freely_reduce


class DiagramClass(enum.Enum):
    GRAPH_OF_GROUPS = "graph-of-groups"
    DIAGRAM = "diagram"
    UNKNOWN = "unknown"


@dataclass(frozen=True, eq=False)
class GraphOfGroups:
    """A graph of groups (or diagram) with a basepoint and an optional
    stored spanning tree.

    Compared and hashed by identity: the dict-valued fields make
    structural hashing impractical.  Data derived from the fields is
    computed on first use and kept on the instance: the validation report
    (``validate_gog``), the classification (``classify``), the spanning
    tree (``tree_orbits``), the tree half-edge entering each vertex on its
    path from the basepoint (``tree_parent``) and the default presentation
    (``pi1_presentation`` without arguments).
    """

    graph: AbstractGraph
    vgroup: "MappingProxyType"
    egroup: "MappingProxyType"  # keyed by orbit plus id
    emap: "MappingProxyType"    # keyed by half-edge id
    base: str
    tree: frozenset = None      # orbit plus ids, or None for the default
    provenance: tuple = ()

    @classmethod
    def make(cls, graph, vgroup, egroup, emap, base=None, tree=None, provenance=()):
        if base is None:
            if not graph.vertices:
                raise InvalidStructure("graph has no vertices")
            base = min(graph.vertices)
        return cls(
            graph=graph,
            vgroup=MappingProxyType(dict(vgroup)),
            egroup=MappingProxyType(dict(egroup)),
            emap=MappingProxyType(dict(emap)),
            base=base,
            tree=None if tree is None else frozenset(tree),
            provenance=tuple(provenance),
        )

    def orbits(self):
        return orbits(self.graph)

    def orbit_of(self, e: str) -> EdgeOrbit:
        return EdgeOrbit.of(self.graph, e)

    def tree_orbits(self) -> frozenset:
        """The stored tree, or the deterministic default."""
        return self._tree_ids

    @cached_property
    def _tree_ids(self) -> frozenset:
        if self.tree is not None:
            return self.tree
        return frozenset(o.plus for o in spanning_tree(self.graph))

    @cached_property
    def tree_parent(self) -> "MappingProxyType":
        """{vertex: tree half-edge entering it} on the tree paths from
        ``base``; the basepoint maps to None.  Vertices the tree does not
        reach from ``base`` are absent."""
        tree = self.tree_orbits()
        half_edges = tree | {self.graph.bar[p] for p in tree}
        return MappingProxyType(bfs_parents(self.graph, self.base, half_edges))

    @cached_property
    def _validation(self) -> ValidationReport:
        graph = self.graph
        bad = list(validate_graph(graph).violations)
        for v in sorted(graph.vertices):
            if v not in self.vgroup:
                bad.append(f"vertex {v}: no vertex group")
        for v in sorted(set(self.vgroup) - graph.vertices):
            bad.append(f"vertex group for unknown vertex {v}")
        orbit_list = orbits(graph) if not bad else []
        for o in orbit_list:
            if o.plus not in self.egroup:
                bad.append(f"orbit {o.plus}: no edge group")
        for key in sorted(set(self.egroup) - {o.plus for o in orbit_list}):
            bad.append(f"edge group key {key} is not an orbit plus id")
        for e in sorted(graph.edges):
            h = self.emap.get(e)
            if h is None:
                bad.append(f"edge {e}: no edge map")
                continue
            shared = self.egroup.get(EdgeOrbit.of(graph, e).plus)
            if shared is not None and h.src != shared:
                bad.append(f"edge {e}: map source differs from the orbit edge group")
            target = self.vgroup.get(graph.d0[e])
            if target is not None and h.dst != target:
                bad.append(f"edge {e}: map target differs from the origin vertex group")
        for e in sorted(set(self.emap) - set(graph.edges)):
            bad.append(f"edge map for unknown edge {e}")
        if self.base not in graph.vertices:
            bad.append(f"basepoint {self.base} is not a vertex")
        if self.tree is not None and not bad:
            plus_ids = {o.plus for o in orbit_list}
            for t in sorted(self.tree):
                if t not in plus_ids:
                    bad.append(f"tree entry {t} is not an orbit plus id")
                elif graph.is_loop(t):
                    bad.append(f"tree orbit {t} is a loop")
            if not bad:
                if len(self.tree) != len(graph.vertices) - 1:
                    bad.append("tree orbit count != |vertices| - 1")
                elif self.tree_parent.keys() != graph.vertices:
                    bad.append("tree does not span the graph")
        return ValidationReport(tuple(bad))

    @cached_property
    def _classify(self) -> "DiagramClass":
        require_valid_gog(self)
        result = DiagramClass.GRAPH_OF_GROUPS
        for e in sorted(self.graph.edges):
            try:
                if not hom_is_injective(self.emap[e]):
                    return DiagramClass.DIAGRAM
            except UnsupportedHom:
                result = DiagramClass.UNKNOWN
        return result

    @cached_property
    def _pi1_default(self) -> "Presentation":
        return _build_presentation(self, None, None)

    def replace(self, **kw) -> "GraphOfGroups":
        current = dict(
            graph=self.graph,
            vgroup=dict(self.vgroup),
            egroup=dict(self.egroup),
            emap=dict(self.emap),
            base=self.base,
            tree=self.tree,
            provenance=self.provenance,
        )
        current.update(kw)
        return GraphOfGroups.make(**current)


def validate_gog(g: GraphOfGroups) -> ValidationReport:
    """Structural validation: graph axioms, one shared edge group per orbit,
    matching hom endpoints, tree sanity.  Cached per instance."""
    return g._validation


def require_valid_gog(g: GraphOfGroups) -> None:
    report = validate_gog(g)
    if not report.ok:
        raise InvalidStructure("; ".join(report.violations))


def classify(g: GraphOfGroups) -> DiagramClass:
    """GraphOfGroups iff every edge map is injective; non-injectivity wins
    over undecidability.  Cached per instance."""
    return g._classify


# ---------------------------------------------------------------------------
# presentations


@dataclass(frozen=True, order=True)
class Letter:
    """A named presentation generator, tagged by its owner."""

    name: str
    kind: str    # "vertex" or "edge"
    owner: str   # vertex id, or orbit plus id
    index: int   # generator index within the vertex group; 0 for edges


Word = tuple  # tuple of (letter name, +1 | -1)


def invert_word(word) -> Word:
    return tuple((name, -sign) for name, sign in reversed(word))


@dataclass(frozen=True)
class Presentation:
    generators: tuple  # of Letter
    relators: tuple    # of Word

    def letter(self, name: str) -> Letter:
        for g in self.generators:
            if g.name == name:
                return g
        raise KeyError(name)

    def names(self) -> tuple:
        return tuple(g.name for g in self.generators)


def presentation_letters(g: GraphOfGroups):
    """Assign globally unique letter names.

    Vertex-group generator names are used bare when unambiguous and
    qualified as ``vertex.name`` on collision; orbit letters are the plus
    edge ids (unique by construction).
    """
    counts = {}
    plan = []  # (kind, owner, index, raw name)
    for v in sorted(g.graph.vertices):
        for i, raw in enumerate(g.vgroup[v].generator_names()):
            plan.append(("vertex", v, i, raw))
            counts[raw] = counts.get(raw, 0) + 1
    for o in orbits(g.graph):
        plan.append(("edge", o.plus, 0, o.plus))
        counts[o.plus] = counts.get(o.plus, 0) + 1

    taken = set()
    letters = []
    for kind, owner, index, raw in plan:
        name = raw
        if kind == "vertex" and counts[raw] > 1:
            name = f"{owner}.{raw}"
        while name in taken:
            name = name + "'"
        taken.add(name)
        letters.append(Letter(name=name, kind=kind, owner=owner, index=index))

    vertex_letters = {}
    edge_letters = {}
    for letter in letters:
        if letter.kind == "vertex":
            vertex_letters.setdefault(letter.owner, []).append(letter)
        else:
            edge_letters[letter.owner] = letter
    vertex_letters = {v: tuple(ls) for v, ls in vertex_letters.items()}
    return vertex_letters, edge_letters


def spell_in_letters(group: GroupDesc, letters, x) -> Word:
    """Spell a vertex-group element as a word over that vertex's letters."""
    try:
        raw = group.spell(x)
    except Exception as exc:  # three classes always spell; keep the contract visible
        raise SpellingFailure(str(exc)) from exc
    return tuple((letters[idx].name, sign) for idx, sign in raw)


def edge_relators(g: GraphOfGroups, plus: str, naming) -> tuple:
    """The edge relations t_e f_bar(e)(c) t_e^-1 f_e(c)^-1 of the orbit
    with plus half-edge e, one per edge-group generator c, in the letters
    of ``naming`` (a (vertex_letters, edge_letters) pair); freely reduced,
    freely trivial ones dropped."""
    vertex_letters, edge_letters = naming
    t = edge_letters[plus].name
    minus = g.graph.bar[plus]
    origin, terminus = g.graph.d0[plus], g.graph.d0[minus]
    out = []
    for c in g.egroup[plus].generators():
        w_minus = spell_in_letters(
            g.vgroup[terminus], vertex_letters.get(terminus, ()), g.emap[minus].apply(c)
        )
        w_plus = spell_in_letters(
            g.vgroup[origin], vertex_letters.get(origin, ()), g.emap[plus].apply(c)
        )
        rel = freely_reduce(((t, 1),) + w_minus + ((t, -1),) + invert_word(w_plus))
        if rel:
            out.append(rel)
    return tuple(out)


def pi1_presentation(g: GraphOfGroups, tree=None, naming=None) -> Presentation:
    """Presentation of the fundamental group at ``g.base``.

    Generators: chosen generating sets of the vertex groups plus one letter
    per edge orbit.  Relators: (i) vertex-group defining relators, (ii) the
    edge relations t_e f_bar(c) t_e^-1 f_e(c)^-1, (iii) t_e for tree orbits.
    Output is deterministic: everything is sorted, relators are freely
    reduced, and freely trivial relators are dropped.

    ``naming`` overrides the letter assignment with a (vertex_letters,
    edge_letters) pair from a larger ambient graph, so that presentations
    of subgraphs glue letter-for-letter.
    """
    if tree is None and naming is None:
        return g._pi1_default
    return _build_presentation(g, tree, naming)


def _build_presentation(g: GraphOfGroups, tree, naming) -> Presentation:
    require_valid_gog(g)
    tree_ids = frozenset(tree) if tree is not None else g.tree_orbits()
    if naming is None:
        naming = presentation_letters(g)
    vertex_letters, edge_letters = naming

    generators = []
    for v in sorted(g.graph.vertices):
        generators.extend(vertex_letters.get(v, ()))
    for o in orbits(g.graph):
        generators.append(edge_letters[o.plus])

    relators = []
    # (i) vertex-group relators
    for v in sorted(g.graph.vertices):
        group = g.vgroup[v]
        letters = vertex_letters.get(v, ())
        names = [l.name for l in letters]
        if isinstance(group, FreeAbelian):
            for i in range(group.rank):
                for j in range(i + 1, group.rank):
                    relators.append(
                        ((names[i], 1), (names[j], 1), (names[i], -1), (names[j], -1))
                    )
        elif isinstance(group, FiniteTable):
            for x in group.elements():
                if x == group.id_index:
                    continue
                wx = spell_in_letters(group, letters, x)
                for y in group.elements():
                    if y == group.id_index:
                        continue
                    wy = spell_in_letters(group, letters, y)
                    wxy = spell_in_letters(group, letters, group.mul(x, y))
                    rel = freely_reduce(wx + wy + invert_word(wxy))
                    if rel:
                        relators.append(rel)
        # free vertex groups impose no relators

    # (ii) edge relations, oriented along the plus half-edge
    for o in orbits(g.graph):
        relators.extend(edge_relators(g, o.plus, naming))

    # (iii) tree letters die
    for o in orbits(g.graph):
        if o.plus in tree_ids:
            relators.append(((edge_letters[o.plus].name, 1),))

    return Presentation(tuple(generators), tuple(relators))


def presentation_to_text(p: Presentation) -> str:
    """One generator per line, then --, then one relator word per line."""
    lines = [g.name for g in p.generators]
    lines.append("--")
    for rel in p.relators:
        lines.append(" ".join(f"{n}^-1" if s < 0 else n for n, s in rel))
    return "\n".join(lines) + "\n"
