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
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import combinations
from types import MappingProxyType

from .errors import InvalidStructure, SpellingFailure, UnknownLetter
from .graph import (
    AbstractGraph,
    EdgeOrbit,
    ValidationReport,
    bfs_parents,
    orbits,
    spanning_tree,
    validate_graph,
)
from .folding import free_exponents, free_inv, free_mul, free_reduce
from .groups import INVERSE_SUFFIX, FiniteTable, FreeAbelian, GroupDesc, hom_is_injective
from .quotients import SmithForm, coset_columns


class DiagramClass(enum.Enum):
    GRAPH_OF_GROUPS = "graph-of-groups"
    DIAGRAM = "diagram"


@dataclass(frozen=True, eq=False)
class GraphOfGroups:
    """A graph of groups (or diagram) with a basepoint and an optional
    stored spanning tree.

    The graph has one spanning tree, ``tree_orbits()``: the stored tree or
    the deterministic default.  Its orbits give the tree relators of every
    presentation of the graph, and its paths from the basepoint give every
    letter loop, so the two always agree.

    Compared and hashed by identity: the dict-valued fields make
    structural hashing impractical.  Data derived from the fields is
    computed on first use and kept on the instance: the validation report
    (``validate_gog``), the classification (``classify``), the spanning
    tree (``tree_orbits``), the tree half-edge entering each vertex on its
    path from the basepoint (``tree_parent``), the letter naming
    (``_naming``), the default presentation (``pi1_presentation`` without
    a naming), the tree collapse (``_collapsed``, what
    ``moves.collapse_tree`` returns for a graph of several vertices) and
    the reduction kernel (``_kernel``, a
    ``words.ReductionKernel``, which also holds the letter loops, built
    from the naming and the tree alone).  The kernel is what letter
    expansion, ``validate_loop_word`` and ``reduce`` read: a loop word a
    caller built is validated at entry, a word that ``words`` built or
    checked on this graph carries its kernel and is not validated again,
    and every later product is a raw table lookup, tuple sum or free-word
    product of elements known to be valid.
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
        if not bad:  # orbits, and so edge-group keys, are read only here
            orbit_list = orbits(graph)
            plus_ids = {o.plus for o in orbit_list}
            for o in orbit_list:
                if o.plus not in self.egroup:
                    bad.append(f"orbit {o.plus}: no edge group")
            for key in sorted(set(self.egroup) - plus_ids):
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
        injective = all(hom_is_injective(self.emap[e]) for e in sorted(self.graph.edges))
        return DiagramClass.GRAPH_OF_GROUPS if injective else DiagramClass.DIAGRAM

    @cached_property
    def _naming(self) -> tuple:
        return presentation_letters(self)

    @cached_property
    def _pi1_default(self) -> "Presentation":
        return _build_presentation(self, self._naming)

    @cached_property
    def _collapsed(self) -> "GraphOfGroups":
        from .moves import _collapse  # moves builds on this module

        return _collapse(self)

    @cached_property
    def _kernel(self):
        from .words import ReductionKernel  # words builds on this module

        return ReductionKernel(self)

    def replace(self, **kw) -> "GraphOfGroups":
        current = {f.name: getattr(self, f.name) for f in fields(self)}
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
    """GraphOfGroups iff every edge map is injective.  Cached per instance."""
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


def _letter_fault(token, names) -> UnknownLetter | None:
    """What is wrong with ``token`` as a letter over the generator
    ``names``, as an UnknownLetter, or None for a (name, sign) pair with a
    known name and a sign of 1 or -1."""
    try:
        name, sign = token
    except (TypeError, ValueError):
        return UnknownLetter(f"{token!r} is not a (name, sign) letter")
    if not any(name == known for known in names):
        return UnknownLetter(f"{name!r} is not a presentation generator")
    if sign not in (1, -1):
        return UnknownLetter(f"{(name, sign)!r}: a letter's sign must be 1 or -1")
    return None


@dataclass(frozen=True)
class Presentation:
    """Generators and relator words, compiled once.  ``encode`` is the one
    reader of letter names: it turns a word of (name, sign) letters into
    the free word of ``folding``, generator i (from 0) read as sign * (i + 1),
    and raises UnknownLetter on any other letter.  Each relator object is
    encoded once; ``relator_codes`` keeps each distinct nonempty relator
    once, in order of first occurrence, as the coset-table columns
    ``quotients.coset_columns`` reads off it.  ``_relator_rows`` holds each
    relator object's exponent row, which ``quotients.exponent_matrix``
    copies, ``_exponent_rows`` each distinct nonzero one, and
    ``_abelian_form`` the Smith form of their lattice (a row per generator,
    a column per row) that every abelian reader shares."""

    generators: tuple  # of Letter
    relators: tuple    # of Word

    @cached_property
    def _letters(self) -> dict:
        gens = reversed(tuple(enumerate(self.generators, 1)))  # the first of a name wins
        return {(g.name, sign): sign * i for i, g in gens for sign in (1, -1)}

    def encode(self, word) -> list:
        """The free word of a word of (name, sign) letters; the first other
        letter is named in an UnknownLetter."""
        letters = self._letters
        if not isinstance(word, (list, tuple)):
            word = tuple(word)  # read again to find a fault
        try:
            return [letters[name, sign] for name, sign in word]
        except (KeyError, TypeError, ValueError):
            names = [g.name for g in self.generators]
            raise next(filter(None, (_letter_fault(token, names) for token in word))) from None

    @cached_property
    def _relator_encoding(self) -> dict:  # {id(relator): its free word}
        return {key: tuple(self.encode(r)) for key, r in {id(r): r for r in self.relators}.items()}

    @cached_property
    def relator_codes(self) -> tuple:
        return tuple(coset_columns(w) for w in dict.fromkeys(self._relator_encoding.values()) if w)

    @cached_property
    def _relator_rows(self) -> dict:  # {id(relator): its exponent row}
        n = len(self.generators)
        return {key: tuple(free_exponents(w, n)) for key, w in self._relator_encoding.items()}

    @cached_property
    def _exponent_rows(self) -> tuple:
        return tuple(row for row in dict.fromkeys(self._relator_rows.values()) if any(row))

    @cached_property
    def _abelian_form(self) -> SmithForm:
        return SmithForm([[row[i] for row in self._exponent_rows] for i in range(len(self.generators))])


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
    vertex_letters, edge_letters = {}, {}
    for kind, owner, index, raw in plan:
        name = raw
        if kind == "vertex" and counts[raw] > 1:
            name = f"{owner}.{raw}"
        while name in taken:
            name = name + "'"
        taken.add(name)
        letter = Letter(name=name, kind=kind, owner=owner, index=index)
        if kind == "vertex":
            vertex_letters.setdefault(owner, []).append(letter)
        else:
            edge_letters[owner] = letter
    return {v: tuple(ls) for v, ls in vertex_letters.items()}, edge_letters


def _spell(group: GroupDesc, x, start: int = 0) -> tuple:
    """``group.spell(x)`` with each generator number raised by ``start``."""
    try:
        word = group.spell(x)
    except Exception as exc:  # three classes always spell; keep the contract visible
        raise SpellingFailure(str(exc)) from exc
    return tuple(s + start if s > 0 else s - start for s in word) if start else word


def _named_words(letters, words) -> tuple:
    """Free words over ``letters`` (+i is letters[i - 1]) as Words; equal words share one tuple."""
    code = {s * i: (letter.name, s) for i, letter in enumerate(letters, 1) for s in (1, -1)}
    named = {}
    return tuple(named.get(w) or named.setdefault(w, tuple([code[s] for s in w])) for w in words)


def spell_in_letters(group: GroupDesc, letters, x) -> Word:
    """Spell a vertex-group element as a word over that vertex's letters."""
    return _named_words(letters, [_spell(group, x)])[0]


def edge_relators(g: GraphOfGroups, plus: str, naming) -> tuple:
    """The edge relations t_e f_bar(e)(c) t_e^-1 f_e(c)^-1 of the orbit
    with plus half-edge e, one per edge-group generator c, in the letters
    of ``naming`` (a (vertex_letters, edge_letters) pair); freely reduced,
    freely trivial ones dropped."""
    vertex_letters, edge_letters = naming
    minus = g.graph.bar[plus]
    origin, terminus = g.graph.d0[plus], g.graph.d0[minus]
    # letter 1 is t_e, then the terminus's letters, then the origin's (a loop's are the same)
    letters = [edge_letters[plus], *vertex_letters.get(terminus, ())]
    start = 1 if origin == terminus else len(letters)
    letters[start:] = vertex_letters.get(origin, ())
    words = []
    for c in g.egroup[plus].generators():
        w_minus = _spell(g.vgroup[terminus], g.emap[minus].apply(c), 1)
        w_plus = _spell(g.vgroup[origin], g.emap[plus].apply(c), start)
        words.append(free_reduce((1,) + w_minus + (-1,) + free_inv(w_plus)))
    return _named_words(letters, filter(None, words))


def pi1_presentation(g: GraphOfGroups, naming=None) -> Presentation:
    """Presentation of the fundamental group at ``g.base``.

    Generators: chosen generating sets of the vertex groups plus one letter
    per edge orbit.  Relators: (i) vertex-group defining relators, (ii) the
    edge relations t_e f_bar(c) t_e^-1 f_e(c)^-1, (iii) t_e for the orbits
    of the graph's one tree, ``g.tree_orbits()``, the tree whose paths the
    letter loops walk; present another tree through ``g.replace(tree=...)``.
    Output is deterministic: everything is sorted, relators are freely
    reduced, and freely trivial relators are dropped.

    ``naming`` overrides the letter assignment with a (vertex_letters,
    edge_letters) pair from a larger ambient graph, so that presentations
    of subgraphs glue letter-for-letter.
    """
    if naming is None:
        return g._pi1_default
    return _build_presentation(g, naming)


def _build_presentation(g: GraphOfGroups, naming) -> Presentation:
    require_valid_gog(g)
    vertex_letters, edge_letters = naming
    plus_ids = [o.plus for o in orbits(g.graph)]

    generators = [l for v in sorted(g.graph.vertices) for l in vertex_letters.get(v, ())]
    generators.extend(edge_letters[plus] for plus in plus_ids)

    relators = []
    # (i) vertex-group relators, built as free words over the vertex's letters
    for v in sorted(g.graph.vertices):
        group = g.vgroup[v]
        letters = vertex_letters.get(v, ())
        words = ()  # free vertex groups impose no relators
        if isinstance(group, FreeAbelian):
            words = [(a, b, -a, -b) for a, b in combinations(range(1, len(letters) + 1), 2)]
        elif isinstance(group, FiniteTable):
            spelled = [_spell(group, x) for x in group.elements()]
            inverse = [free_inv(w) for w in spelled]
            words = [free_mul(free_mul(spelled[x], spelled[y]), inverse[xy])  # cancels at the seams only
                     for x, row in enumerate(group.mul_table) for y, xy in enumerate(row)]
        relators.extend(_named_words(letters, filter(None, words)))  # drop freely trivial ones

    # (ii) edge relations, oriented along the plus half-edge
    for plus in plus_ids:
        relators.extend(edge_relators(g, plus, naming))

    # (iii) the letters of the graph's tree die
    tree = g.tree_orbits()
    relators.extend(((edge_letters[plus].name, 1),) for plus in plus_ids if plus in tree)

    return Presentation(tuple(generators), tuple(relators))


def presentation_to_text(p: Presentation) -> str:
    """One generator per line, then --, then one relator word per line."""
    lines = [g.name for g in p.generators]
    lines.append("--")
    lines.extend(relator_to_text(rel) for rel in p.relators)
    return "\n".join(lines) + "\n"


def relator_to_text(rel) -> str:
    """A relator word as space-separated tokens, name or name^-1."""
    return " ".join(n + INVERSE_SUFFIX if s < 0 else n for n, s in rel)
