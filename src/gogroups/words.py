"""Loop words in the fundamental group of a graph of groups and their
pinch reduction.

A loop word alternates vertex-group elements and half-edge traversals,
g0 e1 g1 ... en gn, starting and ending at its basepoint; traversing a
half-edge e moves from d0(e) to d0(bar(e)).  A pinch is a subword
e * g * bar(e) with g in the image of f_bar(e); by the relation
t_e f_bar(e)(c) t_e^-1 = f_e(c) it rewrites to f_e(f_bar(e)^-1(g)),
removing two edge traversals.  Pinch-free words with at least one edge
traversal are nontrivial; that normal-form guarantee backs every
nontriviality certificate this library emits.

Reduction requires injective edge maps (it is false for diagrams); route
diagrams through convert_diagram first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonLoopWord, UnknownLetter, UnsupportedClass
from .gog import DiagramClass, GraphOfGroups, Presentation, classify, pi1_presentation
from .groups import format_element, hom_apply, hom_member, parse_element


@dataclass(frozen=True)
class LoopWord:
    base: str
    elements: tuple  # n + 1 vertex-group elements
    edges: tuple     # n half-edge ids

    def __post_init__(self):
        if len(self.elements) != len(self.edges) + 1:
            raise NonLoopWord("need exactly one more vertex element than edges")

    def __len__(self):
        return len(self.edges)


@dataclass(frozen=True)
class PinchFreeForm:
    word: LoopWord
    pinch_free: bool


def validate_loop_word(g: GraphOfGroups, w: LoopWord) -> None:
    """Path consistency: origins line up and elements live at their vertices."""
    if w.base not in g.graph.vertices:
        raise NonLoopWord(f"basepoint {w.base} is not a vertex")
    at = w.base
    for i, e in enumerate(w.edges):
        if e not in g.graph.edges:
            raise NonLoopWord(f"unknown half-edge {e}")
        if g.graph.d0[e] != at:
            raise NonLoopWord(f"edge {e} does not start at {at}")
        g.vgroup[at].check(w.elements[i])
        at = g.graph.terminus(e)
    if at != w.base:
        raise NonLoopWord(f"word ends at {at}, not at its basepoint {w.base}")
    g.vgroup[at].check(w.elements[-1])


def _require_reducible(g: GraphOfGroups) -> None:
    kind = classify(g)
    if kind is not DiagramClass.GRAPH_OF_GROUPS:
        raise UnsupportedClass(
            f"pinch reduction needs injective edge maps; this input classifies as {kind.value}"
        )


def reduce(g: GraphOfGroups, w: LoopWord, collect_steps: bool = False):
    """Leftmost-first pinch reduction to a pinch-free form.

    Each step is one application of the defining relation; the syllable
    count strictly decreases, so at most len(w)//2 steps run.  With
    collect_steps=True returns (form, steps) where each step records
    (position, pinched edge, middle element, edge-group preimage,
    substituted element) for external replay.
    """
    _require_reducible(g)
    validate_loop_word(g, w)
    elements = list(w.elements)
    edges = list(w.edges)
    steps = []
    while True:
        pinched = False
        for i in range(len(edges) - 1):
            e, e_next = edges[i], edges[i + 1]
            if e_next != g.graph.bar[e]:
                continue
            middle = elements[i + 1]
            back = g.emap[g.graph.bar[e]]
            answer = hom_member(back, middle)
            if not answer.inside:
                continue
            substituted = hom_apply(g.emap[e], answer.preimage)
            if collect_steps:
                steps.append((i, e, middle, answer.preimage, substituted))
            here = g.vgroup[g.graph.d0[e]]
            merged = here.mul(here.mul(elements[i], substituted), elements[i + 2])
            elements[i : i + 3] = [merged]
            del edges[i : i + 2]
            pinched = True
            break
        if not pinched:
            break
    form = PinchFreeForm(LoopWord(w.base, tuple(elements), tuple(edges)), True)
    return (form, steps) if collect_steps else form


def is_trivial(g: GraphOfGroups, w: LoopWord) -> bool:
    """True iff the pinch-free form is a bare identity element."""
    form = reduce(g, w)
    word = form.word
    return len(word) == 0 and g.vgroup[word.base].is_identity(word.elements[0])


def inverse_loop(g: GraphOfGroups, w: LoopWord) -> LoopWord:
    positions = [w.base]
    for e in w.edges:
        positions.append(g.graph.terminus(e))
    elements = tuple(
        g.vgroup[positions[i]].inv(w.elements[i]) for i in reversed(range(len(w.elements)))
    )
    edges = tuple(g.graph.bar[e] for e in reversed(w.edges))
    return LoopWord(w.base, elements, edges)


def concat_loops(g: GraphOfGroups, a: LoopWord, b: LoopWord) -> LoopWord:
    if a.base != b.base:
        raise NonLoopWord("loop words based at different vertices")
    group = g.vgroup[a.base]
    elements = a.elements[:-1] + (group.mul(a.elements[-1], b.elements[0]),) + b.elements[1:]
    return LoopWord(a.base, elements, a.edges + b.edges)


def identity_loop(g: GraphOfGroups, base=None) -> LoopWord:
    base = g.base if base is None else base
    return LoopWord(base, (g.vgroup[base].identity(),), ())


def equal(g: GraphOfGroups, w1: LoopWord, w2: LoopWord) -> bool:
    return is_trivial(g, concat_loops(g, w1, inverse_loop(g, w2)))


# ---------------------------------------------------------------------------
# presentation letters -> loop words


def tree_path(g: GraphOfGroups, v: str) -> tuple:
    """Half-edge sequence along the spanning tree from ``g.base`` to v."""
    parent = g.tree_parent
    if v not in parent:
        raise NonLoopWord(f"tree does not connect {g.base} to {v}")
    path = []
    while parent[v] is not None:
        e = parent[v]
        path.append(e)
        v = g.graph.d0[e]
    return tuple(reversed(path))


def _identity_loop_over(g: GraphOfGroups, edges) -> LoopWord:
    """Loop word over the given closed edge path with identity elements."""
    elements = [g.vgroup[g.base].identity()]
    at = g.base
    for e in edges:
        at = g.graph.terminus(e)
        elements.append(g.vgroup[at].identity())
    word = LoopWord(g.base, tuple(elements), tuple(edges))
    validate_loop_word(g, word)
    return word


def letter_loop(g: GraphOfGroups, pres: Presentation, name: str, sign: int) -> LoopWord:
    """The loop word a single presentation letter denotes."""
    try:
        letter = pres.letter(name)
    except KeyError:
        raise UnknownLetter(f"{name!r} is not a presentation generator") from None
    if letter.kind == "vertex":
        v = letter.owner
        x = g.vgroup[v].generators()[letter.index]
        if sign < 0:
            x = g.vgroup[v].inv(x)
        down = tree_path(g, v)
        up = tuple(g.graph.bar[e] for e in reversed(down))
        word = _identity_loop_over(g, down + up)
        elements = list(word.elements)
        elements[len(down)] = x
        word = LoopWord(g.base, tuple(elements), word.edges)
        validate_loop_word(g, word)
        return word
    plus = letter.owner
    edge = plus if sign > 0 else g.graph.bar[plus]
    down = tree_path(g, g.graph.d0[edge])
    back = tree_path(g, g.graph.terminus(edge))
    up = tuple(g.graph.bar[e] for e in reversed(back))
    return _identity_loop_over(g, down + (edge,) + up)


def word_from_presentation_letters(g, letters, pres: Presentation = None) -> LoopWord:
    """Expand presentation letters into a base-pointed loop word.

    ``letters`` is a string of whitespace-separated tokens (name or
    name^-1) or a sequence of (name, sign) pairs.  Tree letters expand to
    their tree paths, so the result is always path-consistent.
    """
    if pres is None:
        pres = pi1_presentation(g)
    if isinstance(letters, str):
        tokens = []
        for tok in letters.split():
            if tok.endswith("^-1"):
                tokens.append((tok[: -len("^-1")], -1))
            else:
                tokens.append((tok, 1))
    else:
        tokens = list(letters)
    word = identity_loop(g)
    for name, sign in tokens:
        word = concat_loops(g, word, letter_loop(g, pres, name, sign))
    return word


# ---------------------------------------------------------------------------
# CLI word grammar


def format_loop_word(g: GraphOfGroups, w: LoopWord) -> str:
    """Tokens: vertex elements as v:<element>, half-edges as e or e^-1.

    Identity vertex elements between traversals are omitted; a bare word
    (no edges) always prints its single element.
    """
    validate_loop_word(g, w)
    tokens = []
    at = w.base
    for i, e in enumerate(w.edges):
        x = w.elements[i]
        if not g.vgroup[at].is_identity(x):
            tokens.append(f"{at}:{format_element(g.vgroup[at], x)}")
        orbit = g.orbit_of(e)
        tokens.append(e if e == orbit.plus else f"{orbit.plus}^-1")
        at = g.graph.terminus(e)
    x = w.elements[-1]
    if not g.vgroup[at].is_identity(x) or not w.edges:
        tokens.append(f"{at}:{format_element(g.vgroup[at], x)}")
    return " ".join(tokens)


def parse_loop_word(g: GraphOfGroups, text: str, pres: Presentation = None) -> LoopWord:
    """Parse either grammar.

    Tokens containing ':' select the raw syllable grammar (v:<element>
    plus half-edge ids); otherwise every token is treated as a
    presentation letter and expanded through the spanning tree.
    """
    tokens = text.split()
    if not tokens:
        return identity_loop(g)
    if not any(":" in t for t in tokens):
        return word_from_presentation_letters(g, text, pres=pres)
    base = g.base
    elements = []
    edges = []
    pending = None  # element waiting before the next edge
    at = base
    for tok in tokens:
        if ":" in tok:
            v, _, rest = tok.partition(":")
            if v != at:
                raise NonLoopWord(f"element token {tok!r} appears at position {at}")
            x = parse_element(g.vgroup[v], rest)
            pending = x if pending is None else g.vgroup[v].mul(pending, x)
            continue
        name, sign = (tok[: -len("^-1")], -1) if tok.endswith("^-1") else (tok, 1)
        if name not in g.graph.edges:
            raise UnknownLetter(f"{name!r} is not a half-edge id")
        e = name if sign > 0 else g.graph.bar[name]
        elements.append(g.vgroup[at].identity() if pending is None else pending)
        pending = None
        edges.append(e)
        at = g.graph.terminus(e)
    elements.append(g.vgroup[at].identity() if pending is None else pending)
    word = LoopWord(base, tuple(elements), tuple(edges))
    validate_loop_word(g, word)
    return word
