"""Deciding abelianness of pi1 for graphs of finitely generated free
abelian groups, with machine-checkable witnesses, plus the statement-level
geometric-rank bound and the finite rank-raising product family.

The decision procedure runs the structure of the rank-bound proof as an
algorithm over a graph of free abelian groups:

  1. a non-loop tree orbit with no isomorphic side yields the witness
     [g_u, t g_v t^-1] built from cogenerators of the two edge maps;
  2. otherwise the spanning tree collapses to one vertex;
  3. two or more surviving loop orbits yield the witness [t1, t2];
  4. one loop: a non-surjective side yields a t a^-1 t^-1 with a a
     cogenerator (4a); two equal isomorphisms mean pi1 = G_v x Z (4c);
     unequal isomorphisms yield a conjugation-commutator witness whose
     reduced form is alpha1(c) alpha2(c)^-1 (4b); no loops: pi1 = G_v.

Every NonAbelian verdict re-verifies its witness through the pinch
reducer before returning, so a skeptical consumer can replay it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceeded, UnsupportedClass
from .gog import DiagramClass, GraphOfGroups, classify, require_valid_gog
from .graph import orbits
from .groups import (
    MAX_TABLE,
    FiniteTable,
    FreeAbelian,
    GroupDesc,
    cogenerator,
    cyclic_table,
    direct_product,
    geometric_rank_class,
    group_rank,
)
from .moves import collapse_tree
from .words import LoopWord, PinchFreeForm, reduce


@dataclass(frozen=True, eq=False)
class AbelianVerdict:
    """Either Abelian with a rank or NonAbelian with a replayable witness.

    ``carrier`` is the graph of groups the witness lives on: the input for
    step 1, the collapsed single-vertex graph for steps 3 and 4.
    """

    abelian: bool
    rank: int = None
    note: str = None            # "G_v" or "G_v x Z" in the abelian case
    witness: LoopWord = None
    reduced: PinchFreeForm = None
    provenance: str = None      # proof step: "1", "3", "4a", "4b"
    carrier: GraphOfGroups = None

    def to_text(self) -> str:
        from .words import format_loop_word

        if self.abelian:
            return f"Abelian\nrank: {self.rank}\nnote: {self.note}\n"
        return (
            "NonAbelian\n"
            f"step: {self.provenance}\n"
            f"witness: {format_loop_word(self.carrier, self.witness)}\n"
            f"reduced: {format_loop_word(self.carrier, self.reduced.word)}\n"
        )


def _certified(g: GraphOfGroups, witness: LoopWord, step: str) -> AbelianVerdict:
    form = reduce(g, witness)
    if len(form.word) < 1 and g.vgroup[form.word.base].is_identity(form.word.elements[0]):
        raise AssertionError(f"witness for step {step} collapsed")
    return AbelianVerdict(
        abelian=False, witness=witness, reduced=form, provenance=step, carrier=g
    )


def recognize_abelian(g: GraphOfGroups) -> AbelianVerdict:
    """Decide whether pi1 of a graph of f.g. free abelian groups is abelian."""
    require_valid_gog(g)
    for v in sorted(g.graph.vertices):
        if not isinstance(g.vgroup[v], FreeAbelian):
            raise UnsupportedClass(f"vertex group at {v} is not free abelian")
    for p in sorted(g.egroup):
        if not isinstance(g.egroup[p], FreeAbelian):
            raise UnsupportedClass(f"edge group at orbit {p} is not free abelian")
    if classify(g) is not DiagramClass.GRAPH_OF_GROUPS:
        raise UnsupportedClass("input must be a graph of groups (injective edge maps)")

    # step 1: tree orbits with no isomorphic side give commutator witnesses
    tree_ids = g.tree_orbits()
    for plus in sorted(tree_ids):
        minus = g.graph.bar[plus]
        f_plus, f_minus = g.emap[plus], g.emap[minus]
        g_u = cogenerator(f_plus)   # injective, so iso iff surjective
        g_v = cogenerator(f_minus)
        if g_u is None or g_v is None:
            continue
        u, v = g.graph.d0[plus], g.graph.d0[minus]
        iu, iv = g.vgroup[u].identity(), g.vgroup[v].identity()
        witness = LoopWord(
            u,
            (g_u, g_v, g.vgroup[u].inv(g_u), g.vgroup[v].inv(g_v), iu),
            (plus, minus, plus, minus),
        )
        return _certified(g, witness, "1")

    collapsed = collapse_tree(g)
    vertex = min(collapsed.graph.vertices)
    group = collapsed.vgroup[vertex]
    loops = orbits(collapsed.graph)

    # step 3: two stable letters never commute
    if len(loops) >= 2:
        t1, t2 = loops[0], loops[1]
        ident = group.identity()
        witness = LoopWord(
            vertex,
            (ident,) * 5,
            (t1.plus, t2.plus, t1.minus, t2.minus),
        )
        verdict = _certified(collapsed, witness, "3")
        return verdict

    if not loops:
        return AbelianVerdict(abelian=True, rank=group.rank, note="G_v")

    # step 4: a single loop
    o = loops[0]
    alpha2, alpha1 = collapsed.emap[o.plus], collapsed.emap[o.minus]
    ident = group.identity()
    for h, edge_first in ((alpha1, o.plus), (alpha2, o.minus)):
        a = cogenerator(h)
        if a is not None:
            # 4a: a t a^-1 t^-1 with a outside im(alpha_i); traversing so the
            # pinch test runs against the non-surjective side
            witness = LoopWord(
                vertex,
                (a, group.inv(a), ident),
                (edge_first, collapsed.graph.bar[edge_first]),
            )
            return _certified(collapsed, witness, "4a")

    for c in collapsed.egroup[o.plus].generators():
        a1, a2 = alpha1.apply(c), alpha2.apply(c)
        if a1 != a2:
            # 4b: alpha1(c) t alpha1(c)^-1 t^-1 reduces to alpha1(c) alpha2(c)^-1
            witness = LoopWord(
                vertex,
                (a1, group.inv(a1), ident),
                (o.plus, o.minus),
            )
            verdict = _certified(collapsed, witness, "4b")
            expected = group.mul(a1, group.inv(a2))
            if verdict.reduced.word.elements != (expected,):
                raise AssertionError("4b witness did not reduce to alpha1(c) alpha2(c)^-1")
            return verdict

    return AbelianVerdict(abelian=True, rank=group.rank + 1, note="G_v x Z")


def rank_bound(g: GraphOfGroups) -> int:
    """Statement-level bound: 1 + max geometric rank among vertex groups."""
    require_valid_gog(g)
    return 1 + max(geometric_rank_class(g.vgroup[v]) for v in g.graph.vertices)


def product_rank_family(m: int, base: FiniteTable) -> GroupDesc:
    """base x (Z/2)^m; its rank is at least m (it surjects (Z/2)^m)."""
    if not 0 <= m <= 4:
        raise ValueError("m must be between 0 and 4")
    if base.order() * 2 ** m > MAX_TABLE:
        raise CapExceeded(
            f"product order {base.order() * 2 ** m} exceeds the table cap {MAX_TABLE}"
        )
    result = base
    for _ in range(m):
        result = direct_product(result, cyclic_table(2))
    if group_rank(result) < m:
        raise AssertionError(f"product family: base x (Z/2)^{m} has rank below {m}")
    return result
