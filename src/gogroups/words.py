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
from typing import ClassVar

from .errors import NonLoopWord, UnknownLetter, UnsupportedClass
from .gog import (
    DiagramClass,
    GraphOfGroups,
    Presentation,
    _letter_fault,
    classify,
    require_valid_gog,
)
from .groups import (
    INVERSE_SUFFIX,
    FiniteTable,
    format_element,
    parse_element,
    split_inverse,
)


@dataclass(frozen=True)
class LoopWord:
    """A loop word.  ``_checked_by`` is the ``ReductionKernel`` of the one
    graph on which this module built or checked the word's tuples, else
    None; it is set here only, on the instance, and is no field, so no
    part of the word's value."""

    base: str
    elements: tuple  # n + 1 vertex-group elements
    edges: tuple     # n half-edge ids
    _checked_by: ClassVar[object] = None

    def __post_init__(self):
        if len(self.elements) != len(self.edges) + 1:
            raise NonLoopWord("need exactly one more vertex element than edges")

    def __len__(self):
        return len(self.edges)

    def __reduce__(self):
        # a copy or an unpickled word is checked again
        return LoopWord, (self.base, self.elements, self.edges)


def _checked(kernel: "ReductionKernel", word: LoopWord) -> LoopWord:
    """Stamp a word whose tuples this module built, or checked, as a loop
    of ``kernel``'s graph."""
    object.__setattr__(word, "_checked_by", kernel)
    return word


@dataclass(frozen=True)
class PinchFreeForm:
    word: LoopWord
    pinch_free: bool


class ReductionKernel:
    """Everything letter expansion, word validation and pinch reduction
    read of one graph, in plain dicts: built once, on first use, and kept
    as ``GraphOfGroups._kernel``.

    Per vertex: the group's identity, its bound ``check`` and its
    unchecked product ``_mul``, the core its checked ``mul`` calls after
    the check, compiled once per group: for a table a closure over the rows
    of ``mul_table``, for Z one addition of the single coordinate.  A
    word is checked by ``validate_loop_word`` unless it carries this kernel
    as its stamp, set only on words this module built from the kernel's
    own loops or checked itself; after that only raw products and hom
    images of checked elements arise, and they stay in their groups.  Per
    half-edge: its (origin, terminus); ``join[e]``, the (product, identity)
    of its origin, the one entry a pinch at e reads to join the elements
    around it; and ``pinch[e]``, which maps the middle element g of a
    subword e g bar(e) to (preimage under f_bar(e), its image under f_e),
    or to None when g is outside the image of f_bar(e).  Every half-edge's
    lookup is compiled once and checks nothing: for table homs it is the
    ``get`` of one precomputed dict; otherwise it is a function that
    composes the unchecked cores ``_preimage`` of f_bar(e) and ``_image``
    of f_e, the same cores that ``hom_member`` and ``hom_apply`` call after
    their checks, and ``reduce`` keeps a few of its answers for the length
    of one call.
    Per letter: ``loops[name, sign]`` = (first element, later elements,
    edges), the graph's one letter-loop table, None until the first letter
    expansion compiles it whole, so raw syllables never name letters; the
    first element is None when it is the identity, which it is for every
    letter but a generator of the base vertex group.
    """

    __slots__ = ("base", "identity", "check", "mul", "ends", "bar", "pinch", "join", "loops")

    def __init__(self, g: GraphOfGroups):
        require_valid_gog(g)
        graph = g.graph
        self.base = g.base
        self.identity = {v: group.identity() for v, group in g.vgroup.items()}
        self.check = {v: group.check for v, group in g.vgroup.items()}
        self.mul = {v: group._mul for v, group in g.vgroup.items()}
        self.bar = dict(graph.bar)
        self.ends = {e: (graph.d0[e], graph.terminus(e)) for e in graph.edges}
        self.pinch = {e: _pinch_lookup(g.emap[graph.bar[e]], g.emap[e]) for e in graph.edges}
        self.join = {e: (self.mul[v], self.identity[v]) for e, (v, _) in self.ends.items()}
        self.loops = None


def _pinch_lookup(inner, outer):
    """middle -> (preimage under ``inner``, its image under ``outer``) | None."""
    if isinstance(inner.src, FiniteTable):
        return {y: (i, outer.data[i]) for y, i in inner._first_preimage.items()}.get
    preimage, image = inner._preimage, outer._image

    def lookup(middle):
        x = preimage(middle)
        return None if x is None else (x, image(x))

    return lookup


_TABLE_LOOKUP = type({}.get)

# Keys ``reduce`` keeps computed lookups for, per call.  The long_words
# benchmark words need at most six; a nested trefoil cascade of 600 levels,
# whose 1,200 middles are all new, held 33 MB of them with no bound.
_MEMO_ENTRIES = 16


def validate_loop_word(g: GraphOfGroups, w: LoopWord) -> None:
    """Path consistency: origins line up and elements live at their vertices.

    Returns at once on a word that carries ``g``'s own kernel as its stamp;
    any other word, one a caller built included, is checked in full."""
    kernel = g._kernel
    if w._checked_by is kernel:
        return
    checks, ends = kernel.check, kernel.ends
    at = w.base
    try:
        checks[at]
    except (KeyError, TypeError):
        raise NonLoopWord(f"basepoint {at} is not a vertex") from None
    elements = w.elements
    for i, e in enumerate(w.edges):
        try:
            origin, terminus = ends[e]
        except (KeyError, TypeError):
            raise NonLoopWord(f"unknown half-edge {e}") from None
        if origin != at:
            raise NonLoopWord(f"edge {e} does not start at {at}")
        checks[at](elements[i])
        at = terminus
    if at != w.base:
        raise NonLoopWord(f"word ends at {at}, not at its basepoint {w.base}")
    checks[at](elements[-1])


def _require_reducible(g: GraphOfGroups) -> None:
    kind = classify(g)
    if kind is not DiagramClass.GRAPH_OF_GROUPS:
        raise UnsupportedClass(
            f"pinch reduction needs injective edge maps; this input classifies as {kind.value}"
        )


def reduce(g: GraphOfGroups, w: LoopWord, collect_steps: bool = False):
    """Leftmost-first pinch reduction to a pinch-free form, in one pass.

    The word is read left to right onto a stack of half-edges and the
    elements between them.  Invariant: the stack holds no pinch.  A pinch
    only changes the element between the two edges on either side of it,
    so the one new candidate is the stack's top edge against the next
    incoming one; the first pinch the scan meets is therefore the leftmost
    pinch of the current word, and the steps are exactly those of
    restarting from the left after every pinch, in linear time.

    Each step is one application of the defining relation; the syllable
    count strictly decreases, so at most len(w)//2 steps run.  With
    collect_steps=True returns (form, steps) where each step records
    (position, pinched edge, middle element, edge-group preimage,
    substituted element) for external replay.

    ``validate_loop_word`` is the one check of the word's elements, at
    entry, and it passes a word this module built or checked on ``g`` at
    once; the pass itself reads only the graph's ``ReductionKernel``:
    pinch lookups and raw products, closed on checked elements, so the
    form is stamped as checked.  The answers of computed (non-table)
    lookups, misses included, are kept for the first ``_MEMO_ENTRIES``
    distinct (half-edge, middle) keys of a call, so a repeated middle is
    looked up once: t^L a t^-L on the torus looks up a under t once, not
    L times.  The bound keeps a call whose middles are all new (a nested
    cascade) from holding every one of them; the memo dies with the
    call.  The join x * substituted * after, read from ``join[e]`` of the
    pinched edge, multiplies only the factors that are not their vertex's
    identity.
    """
    _require_reducible(g)
    validate_loop_word(g, w)
    kernel = g._kernel
    bar, pinch, join = kernel.bar, kernel.pinch, kernel.join
    memo = {}  # (e, middle) -> computed lookup's answer, this call only
    elements = [w.elements[0]]
    edges = []
    steps = []
    for incoming, after in zip(w.edges, w.elements[1:]):
        if edges and incoming == bar[edges[-1]]:
            e = edges[-1]
            middle = elements[-1]
            lookup = pinch[e]
            if type(lookup) is _TABLE_LOOKUP:
                hit = lookup(middle)
            else:
                key = e, middle
                hit = memo.get(key, memo)  # the memo itself marks "not kept"
                if hit is memo:
                    hit = lookup(middle)
                    if len(memo) < _MEMO_ENTRIES:
                        memo[key] = hit
            if hit is not None:
                preimage, substituted = hit
                if collect_steps:
                    steps.append((len(edges) - 1, e, middle, preimage, substituted))
                mul, one = join[e]
                edges.pop()
                elements.pop()
                x = elements[-1]
                if substituted != one:
                    x = substituted if x == one else mul(x, substituted)
                if after != one:
                    x = after if x == one else mul(x, after)
                elements[-1] = x
                continue
        edges.append(incoming)
        elements.append(after)
    form = PinchFreeForm(_checked(kernel, LoopWord(w.base, tuple(elements), tuple(edges))), True)
    return (form, steps) if collect_steps else form


def is_trivial(g: GraphOfGroups, w: LoopWord) -> bool:
    """True iff the pinch-free form is a bare identity element."""
    word = reduce(g, w).word
    return len(word) == 0 and g.vgroup[word.base].is_identity(word.elements[0])


def inverse_loop(g: GraphOfGroups, w: LoopWord) -> LoopWord:
    """The inverse loop, stamped as checked: w is checked (at once if it
    carries ``g``'s stamp) and inverted with the unchecked cores."""
    validate_loop_word(g, w)
    kernel = g._kernel
    positions = [w.base] + [kernel.ends[e][1] for e in w.edges]
    pairs = zip(reversed(positions), reversed(w.elements))
    elements = tuple(g.vgroup[v]._inv(x) for v, x in pairs)
    edges = tuple(kernel.bar[e] for e in reversed(w.edges))
    return _checked(kernel, LoopWord(w.base, elements, edges))


def concat_loops(g: GraphOfGroups, a: LoopWord, b: LoopWord) -> LoopWord:
    """a then b, stamped as checked: both are checked (at once if they
    carry ``g``'s stamp) and joined with the raw product."""
    if a.base != b.base:
        raise NonLoopWord("loop words based at different vertices")
    validate_loop_word(g, a)
    validate_loop_word(g, b)
    kernel = g._kernel
    *head, last = a.elements
    first, *tail = b.elements
    elements = (*head, kernel.mul[a.base](last, first), *tail)
    return _checked(kernel, LoopWord(a.base, elements, (*a.edges, *b.edges)))


def identity_loop(g: GraphOfGroups) -> LoopWord:
    kernel = g._kernel
    return _checked(kernel, LoopWord(g.base, (kernel.identity[g.base],), ()))


def equal(g: GraphOfGroups, w1: LoopWord, w2: LoopWord) -> bool:
    return is_trivial(g, concat_loops(g, w1, inverse_loop(g, w2)))


# ---------------------------------------------------------------------------
# presentation letters -> loop words


def _letter_loops(g: GraphOfGroups, kernel: ReductionKernel) -> dict:
    """``kernel.loops`` for each letter of the naming and each sign: out
    along the tree from ``base``, the letter's vertex generator or its
    edge, and back; every other element is its vertex's identity."""
    ends, bar, identity = kernel.ends, kernel.bar, kernel.identity
    one = identity[kernel.base]
    down = {}  # vertex -> tree path from base; tree_parent lists a parent first
    for v, e in g.tree_parent.items():
        down[v] = () if e is None else down[ends[e][0]] + (e,)
    up = {v: tuple(bar[e] for e in reversed(path)) for v, path in down.items()}

    def entry(edges, at=0, x=one):
        elements = [one, *(identity[ends[e][1]] for e in edges)]
        elements[at] = x
        return None if elements[0] == one else elements[0], tuple(elements[1:]), edges

    vertex_letters, edge_letters = g._naming
    loops = {}
    for v, letters in vertex_letters.items():
        group = g.vgroup[v]
        for letter in letters:
            x = group.generators()[letter.index]
            for sign, y in ((1, x), (-1, group.inv(x))):
                loops[letter.name, sign] = entry(down[v] + up[v], len(down[v]), y)
    for plus, letter in edge_letters.items():
        for sign, edge in ((1, plus), (-1, bar[plus])):
            loops[letter.name, sign] = entry(down[ends[edge][0]] + (edge,) + up[ends[edge][1]])
    return loops


def _loop_of(loops: dict, token) -> tuple:
    """The loop of a token that is no key of ``loops``: a (name, sign)
    pair of another type, such as a list, else UnknownLetter."""
    try:
        name, sign = token
        return loops[name, sign]
    except (KeyError, TypeError, ValueError):
        raise _letter_fault(token, {known for known, _ in loops}) from None


def word_from_presentation_letters(g, letters, pres: Presentation = None) -> LoopWord:
    """Expand letters of the graph's naming into a base-pointed loop word.

    ``letters`` is a string of whitespace-separated tokens (name or
    name^-1) or a sequence of (name, sign) pairs with sign 1 or -1, else
    UnknownLetter.  Expansion never builds a presentation: ``pres`` may
    only be the graph's own ``pi1_presentation(g)``, already built, else
    UnknownLetter.  Linear in the length of the result: the first
    expansion on a graph compiles the kernel's whole ``loops`` table, and
    each letter's loop is looked up there and appended in place.  The
    result is not validated but stamped as checked: every loop runs from
    ``base`` to ``base`` along the tree, so the joins use the base group's
    raw product, and only where the loop's first element is not the
    identity, that is for a generator of the base vertex group; such a
    head replaces an identity last element instead of multiplying into it,
    and its loop, which has no edges, appends nothing.
    """
    if pres is not None and pres is not vars(g).get("_pi1_default"):
        raise UnknownLetter("letters expand under the graph's own presentation only")
    tokens = [split_inverse(t) for t in letters.split()] if isinstance(letters, str) else letters
    kernel = g._kernel
    loops = kernel.loops
    if loops is None:
        loops = kernel.loops = _letter_loops(g, kernel)
    mul = kernel.mul[kernel.base]
    identity = kernel.identity[kernel.base]
    elements = [identity]
    edges = []
    for token in tokens:
        try:
            head, rest, path = loops[token]
        except (KeyError, TypeError):
            head, rest, path = _loop_of(loops, token)
        if head is not None:
            last = elements[-1]
            elements[-1] = head if last == identity else mul(last, head)
        if path:
            elements.extend(rest)
            edges.extend(path)
    return _checked(kernel, LoopWord(kernel.base, tuple(elements), tuple(edges)))


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
        tokens.append(e if e == orbit.plus else orbit.plus + INVERSE_SUFFIX)
        at = g.graph.terminus(e)
    x = w.elements[-1]
    if not g.vgroup[at].is_identity(x) or not w.edges:
        tokens.append(f"{at}:{format_element(g.vgroup[at], x)}")
    return " ".join(tokens)


def parse_loop_word(g: GraphOfGroups, text: str) -> LoopWord:
    """Parse either grammar.

    Tokens containing ':' select the raw syllable grammar (v:<element>
    plus half-edge ids); otherwise every token is treated as a
    presentation letter and expanded through the spanning tree.
    """
    tokens = text.split()
    if not tokens:
        return identity_loop(g)
    if not any(":" in t for t in tokens):
        return word_from_presentation_letters(g, text)
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
        name, sign = split_inverse(tok)
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
    return _checked(g._kernel, word)
