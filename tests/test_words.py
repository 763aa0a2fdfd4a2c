import copy
import dataclasses
import difflib
import gc
import hashlib
import itertools
import pathlib
import pickle
import random
import re
import time
import weakref
from fractions import Fraction

import pytest

import zoo
from gogroups.errors import NonLoopWord, ShapeMismatch, UnknownLetter, UnsupportedClass
from gogroups.gog import (
    DiagramClass,
    GraphOfGroups,
    classify,
    pi1_presentation,
    presentation_letters,
    validate_gog,
)
from gogroups.gogfile import parse_gog
from gogroups.groups import (
    FiniteTable,
    FreeAbelian,
    FreeGroup,
    _ft_generating_set,
    cyclic_table,
    direct_product,
    hom_apply,
    hom_member,
)
from gogroups.moves import QuotientOracle, convert_diagram
from gogroups.words import (
    _MEMO_ENTRIES,
    LoopWord,
    ReductionKernel,
    concat_loops,
    equal,
    format_loop_word,
    identity_loop,
    inverse_loop,
    is_trivial,
    parse_loop_word,
    reduce,
    validate_loop_word,
    word_from_presentation_letters,
)


def commutator_loop(g, text_a, text_b):
    pres = pi1_presentation(g)
    a = word_from_presentation_letters(g, text_a, pres=pres)
    b = word_from_presentation_letters(g, text_b, pres=pres)
    ab = concat_loops(g, a, b)
    return concat_loops(g, ab, inverse_loop(g, concat_loops(g, b, a)))


class TestKlein:
    def test_commutator_reduces_to_a_squared(self):
        g = zoo.klein()
        w = parse_loop_word(g, "a t a^-1 t^-1")
        form = reduce(g, w)
        assert len(form.word) == 0
        assert form.word.elements == ((2,),)
        assert not is_trivial(g, w)

    def test_a_and_t_do_not_commute(self):
        g = zoo.klein()
        a = parse_loop_word(g, "a t")
        t = parse_loop_word(g, "t a")
        assert not equal(g, a, t)

    def test_against_semidirect_product_model(self):
        # Klein bottle group = Z x| Z with t acting by negation
        g = zoo.klein()
        pres = pi1_presentation(g)
        rng = random.Random(3)

        def model(tokens):
            m, k = 0, 0
            for name, sign in tokens:
                if name == "a":
                    m += sign * (1 if k % 2 == 0 else -1)
                else:
                    k += sign
            return (m, k) == (0, 0)

        letters = [("a", 1), ("a", -1), ("t", 1), ("t", -1)]
        for _ in range(120):
            tokens = [rng.choice(letters) for _ in range(rng.randint(0, 7))]
            w = word_from_presentation_letters(g, tokens, pres=pres)
            assert is_trivial(g, w) == model(tokens)


class TestTorus:
    def test_commutator_trivial(self):
        g = zoo.torus()
        w = parse_loop_word(g, "a t a^-1 t^-1")
        assert is_trivial(g, w)

    def test_at_equals_ta(self):
        g = zoo.torus()
        assert equal(g, parse_loop_word(g, "a t"), parse_loop_word(g, "t a"))

    def test_against_exponent_model(self):
        g = zoo.torus()
        pres = pi1_presentation(g)
        rng = random.Random(4)
        letters = [("a", 1), ("a", -1), ("t", 1), ("t", -1)]
        for _ in range(100):
            tokens = [rng.choice(letters) for _ in range(rng.randint(0, 7))]
            w = word_from_presentation_letters(g, tokens, pres=pres)
            counts = {"a": 0, "t": 0}
            for name, sign in tokens:
                counts[name] += sign
            assert is_trivial(g, w) == (counts["a"] == 0 and counts["t"] == 0)


class TestBS12:
    def test_commutator_nontrivial(self):
        g = zoo.bs12()
        assert not is_trivial(g, parse_loop_word(g, "a t a^-1 t^-1"))

    def test_against_affine_model(self):
        # faithful affine action: a(x) = x + 1, t(x) = 2x
        g = zoo.bs12()
        pres = pi1_presentation(g)
        rng = random.Random(5)

        def model(tokens):
            scale, shift = Fraction(1), Fraction(0)
            for name, sign in tokens:
                if name == "a":
                    s, o = Fraction(1), Fraction(sign)
                else:
                    s, o = (Fraction(2), Fraction(0)) if sign > 0 else (Fraction(1, 2), Fraction(0))
                scale, shift = scale * s, scale * o + shift
            return scale == 1 and shift == 0

        letters = [("a", 1), ("a", -1), ("t", 1), ("t", -1)]
        for _ in range(120):
            tokens = [rng.choice(letters) for _ in range(rng.randint(0, 7))]
            w = word_from_presentation_letters(g, tokens, pres=pres)
            assert is_trivial(g, w) == model(tokens)


class TestTwoLoops:
    def test_loop_letters_do_not_commute(self):
        g = zoo.two_loop_trivial()
        w = parse_loop_word(g, "t1 t2 t1^-1 t2^-1")
        form = reduce(g, w)
        assert len(form.word) == 4
        assert not is_trivial(g, w)

    def test_free_reduction_model(self):
        g = zoo.two_loop_trivial()
        pres = pi1_presentation(g)
        rng = random.Random(6)
        letters = [("t1", 1), ("t1", -1), ("t2", 1), ("t2", -1)]
        for _ in range(100):
            tokens = [rng.choice(letters) for _ in range(rng.randint(0, 8))]
            reduced = []
            for name, sign in tokens:
                if reduced and reduced[-1] == (name, -sign):
                    reduced.pop()
                else:
                    reduced.append((name, sign))
            w = word_from_presentation_letters(g, tokens, pres=pres)
            assert is_trivial(g, w) == (not reduced)


def trefoil_model_trivial(tokens):
    """Exact word problem for <x, y | x^2 = y^3>.

    The center is generated by x^2; the quotient is Z/2 * Z/3 whose word
    problem is syllable reduction, and (image in quotient, abelianized
    exponent) determines an element uniquely.
    """
    syllables = []  # alternating ('x', k mod 2) / ('y', k mod 3)
    for name, sign in tokens:
        mod = 2 if name == "x" else 3
        if syllables and syllables[-1][0] == name:
            k = (syllables[-1][1] + sign) % mod
            if k == 0:
                syllables.pop()
            else:
                syllables[-1] = (name, k)
        else:
            k = sign % mod
            if k:
                syllables.append((name, k))
    exponent = sum((3 if name == "x" else 2) * sign for name, sign in tokens)
    return not syllables and exponent == 0


class TestTrefoil:
    def test_central_element_commutes(self):
        g = zoo.trefoil()
        w = commutator_loop(g, "x x", "y")
        assert is_trivial(g, w)

    def test_generators_do_not_commute(self):
        g = zoo.trefoil()
        w = commutator_loop(g, "x", "y")
        form = reduce(g, w)
        assert len(form.word) == 4
        assert not is_trivial(g, w)

    def test_against_central_extension_model(self):
        g = zoo.trefoil()
        pres = pi1_presentation(g)
        rng = random.Random(7)
        letters = [("x", 1), ("x", -1), ("y", 1), ("y", -1)]
        for _ in range(150):
            tokens = [rng.choice(letters) for _ in range(rng.randint(0, 8))]
            w = word_from_presentation_letters(g, tokens, pres=pres)
            assert is_trivial(g, w) == trefoil_model_trivial(tokens)

    def test_amalgam23_matches_trefoil(self):
        # same group built on free abelian vertex groups and matrix maps
        g = zoo.amalgam23()
        pres = pi1_presentation(g)
        rng = random.Random(8)
        letters = [("x", 1), ("x", -1), ("y", 1), ("y", -1)]
        for _ in range(150):
            tokens = [rng.choice(letters) for _ in range(rng.randint(0, 8))]
            w = word_from_presentation_letters(g, tokens, pres=pres)
            assert is_trivial(g, w) == trefoil_model_trivial(tokens)


class TestReductionMachinery:
    def test_w_winv_trivial_randomized(self):
        rng = random.Random(9)
        for g, names in [
            (zoo.klein(), ["a", "t"]),
            (zoo.trefoil(), ["x", "y"]),
            (zoo.amalgam23(), ["x", "y"]),
        ]:
            pres = pi1_presentation(g)
            letters = [(n, s) for n in names for s in (1, -1)]
            for _ in range(25):
                tokens = [rng.choice(letters) for _ in range(rng.randint(0, 6))]
                w = word_from_presentation_letters(g, tokens, pres=pres)
                assert is_trivial(g, concat_loops(g, w, inverse_loop(g, w)))

    def test_conjugation_invariance(self):
        rng = random.Random(10)
        g = zoo.bs12()
        pres = pi1_presentation(g)
        letters = [("a", 1), ("a", -1), ("t", 1), ("t", -1)]
        for _ in range(60):
            tokens = [rng.choice(letters) for _ in range(rng.randint(0, 5))]
            conj = [rng.choice(letters) for _ in range(rng.randint(0, 5))]
            w = word_from_presentation_letters(g, tokens, pres=pres)
            u = word_from_presentation_letters(g, conj, pres=pres)
            uwu = concat_loops(g, concat_loops(g, u, w), inverse_loop(g, u))
            assert is_trivial(g, w) == is_trivial(g, uwu)

    def test_every_step_is_a_relation_instance(self):
        g = zoo.trefoil()
        w = commutator_loop(g, "x x", "y")
        form, steps = reduce(g, w, collect_steps=True)
        assert steps and is_trivial(g, w)
        for _pos, e, middle, preimage, substituted in steps:
            back = g.emap[g.graph.bar[e]]
            fwd = g.emap[e]
            assert hom_apply(back, preimage) == middle
            assert hom_apply(fwd, preimage) == substituted

    def test_termination_pinch_count(self):
        g = zoo.torus()
        pres = pi1_presentation(g)
        w = word_from_presentation_letters(g, "a t a^-1 t^-1 a t a^-1 t^-1", pres=pres)
        form, steps = reduce(g, w, collect_steps=True)
        assert len(steps) <= len(w) // 2

    def test_unknown_and_unhashable_half_edges_are_not_loop_words(self):
        g = zoo.torus()

        def equal_to_identity(g, w):
            return equal(g, identity_loop(g), w)

        for e in ["s", ["t"], {"t": 1}]:
            w = LoopWord("v", ((0,), (0,)), (e,))
            for check in (validate_loop_word, reduce, inverse_loop, equal_to_identity):
                with pytest.raises(NonLoopWord, match=re.escape(f"unknown half-edge {e}")):
                    check(g, w)
        with pytest.raises(NonLoopWord, match=re.escape("basepoint ['v'] is not a vertex")):
            validate_loop_word(g, LoopWord(["v"], ((0,),), ()))

    @pytest.mark.parametrize("g, edges, bad, texts", [
        # finite: the middle of s1^-1 p:#6 s1 sits between a pinchable pair
        (zoo.finite_star(), ("s1^-1", "s1"), 6,
         [f"6 is not an index into a table of size {n}" for n in (6, 2, 6)]),
        (zoo.torus(), ("t", "t^-1"), (0, 1), ["(0, 1) is not a Z^1 element"] * 3),
        (zoo.trefoil(), ("e", "e^-1"), (1, -1), ["(1, -1) is not a reduced F(1) word"] * 3),
    ])
    def test_reduce_checks_every_element_at_entry(self, g, edges, bad, texts):
        # the one check of a word's elements is validate_loop_word at entry:
        # a bad element at the first, a middle or the last position raises
        # the group's own ShapeMismatch text before any pinch runs
        at = [g.base, g.graph.terminus(edges[0]), g.base]
        for position, text in enumerate(texts):
            elements = [g.vgroup[v].identity() for v in at]
            elements[position] = bad
            with pytest.raises(ShapeMismatch, match="^" + re.escape(text) + "$"):
                reduce(g, LoopWord(g.base, tuple(elements), edges))

    def test_reduce_rejects_diagrams(self):
        g = zoo.pushout46()
        base_loop = LoopWord("u", (0,), ())
        with pytest.raises(UnsupportedClass):
            reduce(g, base_loop)


def counted_checks(g):
    """Wrap every vertex check of ``g``'s kernel; returns the list of the
    elements they are called on."""
    calls = []
    checks = g._kernel.check
    for v, check in list(checks.items()):
        checks[v] = lambda x, check=check: (calls.append(x), check(x))[1]
    return calls


class TestCheckedStamp:
    """A word that letter expansion, raw parsing or reduce built on a graph
    carries that graph's kernel and is not checked again there; every other
    word is checked on every call."""

    def test_built_words_are_not_checked_again(self):
        g = zoo.amalgam23()
        calls = counted_checks(g)
        expanded = word_from_presentation_letters(g, "x y e x^-1 y^-1")
        form = reduce(g, expanded).word
        for w in (expanded, form):
            validate_loop_word(g, w)
            reduce(g, w)
            format_loop_word(g, w)
        assert calls == []
        parsed = parse_loop_word(g, "u:[1] e v:[2] e^-1")
        assert calls == [(1,), (2,), (0,)]  # parsing checks once, at its end
        reduce(g, parsed)
        validate_loop_word(g, reduce(g, parsed).word)
        assert len(calls) == 3

    def test_caller_built_words_are_checked_on_every_call(self):
        g = zoo.torus()
        calls = counted_checks(g)
        built = word_from_presentation_letters(g, "a t a^-1 t^-1")
        n = len(built.elements)
        for w in (LoopWord(built.base, built.elements, built.edges),
                  LoopWord(built.base, list(built.elements), list(built.edges))):
            for calls_after in (n, 2 * n):
                validate_loop_word(g, w)
                assert len(calls) == calls_after
            reduce(g, w)
            assert len(calls) == 3 * n
            calls.clear()
        bad = [
            (LoopWord("v", ((0,), (0,)), ("s",)), NonLoopWord, "unknown half-edge s"),
            (LoopWord("v", [(0,), (0,)], ["s"]), NonLoopWord, "unknown half-edge s"),
            (LoopWord("v", ((0, 1), (0,)), ("t",)), ShapeMismatch, "(0, 1) is not a Z^1 element"),
            (LoopWord("v", [(0,), (0, 1)], ["t"]), ShapeMismatch, "(0, 1) is not a Z^1 element"),
        ]
        for w, error, text in bad:
            for check in (validate_loop_word, validate_loop_word, reduce, reduce):
                with pytest.raises(error, match="^" + re.escape(text) + "$"):
                    check(g, w)

    def test_a_word_is_trusted_on_its_own_graph_only(self):
        g = zoo.torus()
        w = word_from_presentation_letters(g, "t a t^-1")
        same_shape = g.replace()
        calls = counted_checks(same_shape)
        validate_loop_word(same_shape, w)
        validate_loop_word(same_shape, w)
        assert len(calls) == 6
        assert reduce(same_shape, w).word == reduce(g, w).word
        with pytest.raises(ShapeMismatch, match=re.escape("(1,) is not a Z^2 element")):
            reduce(zoo.one_vertex(FreeAbelian(2)), word_from_presentation_letters(g, "a"))

    def test_the_stamp_is_no_part_of_the_value(self):
        g = zoo.torus()
        form = reduce(g, word_from_presentation_letters(g, "t a t^-1 a^-1 a")).word
        plain = LoopWord(form.base, form.elements, form.edges)
        assert form._checked_by is g._kernel and plain._checked_by is None
        assert form == plain and hash(form) == hash(plain) and repr(form) == repr(plain)
        assert reduce(g, plain).word == form
        # no field: asdict and astuple copy the three tuples, not the kernel
        assert dataclasses.asdict(form).keys() == {"base", "elements", "edges"}
        assert dataclasses.astuple(form) == (form.base, form.elements, form.edges)
        # a copy, a pickled word and a replaced word are checked again
        calls = counted_checks(g)
        for other in (copy.copy(form), pickle.loads(pickle.dumps(form)),
                      dataclasses.replace(form, base="v")):
            assert other == form and other._checked_by is None
            validate_loop_word(g, other)
        assert len(calls) == 3 * len(form.elements)

    def test_equal_on_built_words_checks_nothing(self):
        g = zoo.torus()
        tokens = [l for _ in range(500) for l in (("t", 1), ("a", 1))]
        w1 = word_from_presentation_letters(g, tokens)
        w2 = word_from_presentation_letters(g, tokens)
        calls = counted_checks(g)
        inverse = inverse_loop(g, w2)
        assert inverse._checked_by is g._kernel
        assert concat_loops(g, w1, inverse)._checked_by is g._kernel
        assert inverse_loop(g, inverse) == w2
        assert equal(g, w1, w2)
        assert not equal(g, w1, word_from_presentation_letters(g, tokens[:-1]))
        assert calls == []

    def test_equal_checks_caller_built_words_in_full(self):
        g = zoo.torus()
        built = word_from_presentation_letters(g, "t a t^-1 a")
        plain = LoopWord(built.base, built.elements, built.edges)
        n = len(built.elements)
        calls = counted_checks(g)
        for pair in ((built, plain), (plain, built)):
            assert concat_loops(g, *pair)._checked_by is g._kernel
            assert len(calls) == n  # concat_loops checked plain
            calls.clear()
        assert inverse_loop(g, plain)._checked_by is g._kernel
        assert len(calls) == n  # inverse_loop checked plain
        calls.clear()
        # plain is checked once per call, by inverse_loop on one side and
        # by concat_loops on the other; reduce checks no joined word
        assert equal(g, built, plain) and equal(g, plain, built)
        assert len(calls) == 2 * n
        bad = [
            (LoopWord("v", ((0,), (0,)), ("s",)), NonLoopWord, "unknown half-edge s"),
            (LoopWord("v", ((0, 1), (0,)), ("t",)), ShapeMismatch, "(0, 1) is not a Z^1 element"),
            (LoopWord("v", ((0,), (0, 1)), ("t",)), ShapeMismatch, "(0, 1) is not a Z^1 element"),
        ]
        for w, error, text in bad:
            for pair in ((built, w), (w, built), (w, w)):
                with pytest.raises(error, match="^" + re.escape(text) + "$"):
                    equal(g, *pair)

    def test_every_returned_word_is_stamped(self):
        # every word words.py returns on a valid graph carries its kernel,
        # whatever its inputs carried
        g = zoo.amalgam23()
        built = word_from_presentation_letters(g, "x y^-1 e x^-1")
        plain = LoopWord(built.base, built.elements, built.edges)
        lists = LoopWord(built.base, list(built.elements), list(built.edges))
        returned = [
            built,
            word_from_presentation_letters(g, [("y", 1), ("e", -1)]),
            parse_loop_word(g, "x y e"),
            parse_loop_word(g, "u:[1] e v:[-1] e^-1"),
            parse_loop_word(g, ""),
            parse_loop_word(g, "  "),
            reduce(g, plain).word,
            reduce(g, lists).word,
            inverse_loop(g, plain),
            inverse_loop(g, lists),
            identity_loop(g),
        ]
        for a in (built, plain, lists):
            for b in (built, plain, lists):
                returned.append(concat_loops(g, a, b))
        for w in returned:
            assert w._checked_by is g._kernel, w
        assert concat_loops(g, lists, plain) == concat_loops(g, built, built)
        assert type(concat_loops(g, lists, lists).elements) is tuple

    def test_equal_on_list_field_words(self):
        # a caller-built word may hold lists: it is checked, then joined
        g = zoo.torus()
        lists = LoopWord("v", [(0,), (1,), (0,)], ["t", "t^-1"])  # t a t^-1
        a = word_from_presentation_letters(g, "a")
        assert equal(g, lists, a) and equal(g, a, lists) and equal(g, lists, lists)
        assert not equal(g, lists, word_from_presentation_letters(g, "t"))

    def test_only_base_generators_multiply_the_join(self):
        # a loop's first element is the identity for every letter but a
        # generator of the base group; the kernel keeps None for it
        g = zoo.amalgam23()  # base u carries x; y lives at v
        w = word_from_presentation_letters(g, "x y^-1 e x^-1")
        loops = g._kernel.loops
        assert [loops[t][0] for t in [("x", 1), ("y", -1), ("e", 1), ("x", -1)]] == [
            (1,), None, None, (-1,)]
        assert w == LoopWord("u", ((1,), (-1,), (0,), (0,), (-1,)), ("e", "e^-1", "e", "e^-1"))


def counted_lookup(g, e):
    """Wrap the pinch lookup of half-edge e in ``g``'s kernel; returns the
    list of the middles it is called on."""
    calls = []
    lookup = g._kernel.pinch[e]
    g._kernel.pinch[e] = lambda middle: (calls.append(middle), lookup(middle))[1]
    return calls


class TestPinchMemo:
    """reduce computes a non-table pinch lookup once per distinct
    (half-edge, middle) among the first ``_MEMO_ENTRIES`` keys of one call,
    and keeps nothing after it."""

    def test_one_lookup_per_distinct_middle_within_a_call(self):
        g = zoo.torus()
        L = 2000
        w = word_from_presentation_letters(g, [("t", 1)] * L + [("a", 1)] + [("t", -1)] * L)
        calls = counted_lookup(g, "t")
        form, steps = reduce(g, w, collect_steps=True)
        assert calls == [(1,)] and len(steps) == L
        assert form.word == LoopWord("v", ((1,),), ())
        reduce(g, w)  # a new call computes again
        assert calls == [(1,), (1,)]

    def test_misses_are_memoised_too(self):
        # y x y x ... on the trefoil is e y e^-1 x e y e^-1 x ...: neither
        # y under e nor x under e^-1 is an edge-group image
        g = zoo.trefoil()
        w = word_from_presentation_letters(g, "y x " * 50)
        calls = {e: counted_lookup(g, e) for e in ("e", "e^-1")}
        assert reduce(g, w).word == w and len(w) == 100
        assert calls == {"e": [(1,)], "e^-1": [(1,)]}

    @pytest.mark.parametrize("name, distinct", [("torus", 1), ("klein", 2), ("bs12", None)])
    def test_towers_match_the_restart_oracle(self, name, distinct):
        # t^L a t^-L: the middle is a, a^+-1 or, on bs12, doubles at each
        # pinch, so there every lookup misses the memo
        for L in (1, 2, 3, 5, 8, 16, 31, 64):
            g = getattr(zoo, name)()
            w = word_from_presentation_letters(g, [("t", 1)] * L + [("a", 1)] + [("t", -1)] * L)
            calls = counted_lookup(g, "t")
            form, steps = reduce(g, w, collect_steps=True)
            elements, edges, oracle_steps = restart_reduce(g, w)
            assert steps == oracle_steps and len(steps) == L
            assert (form.word.elements, form.word.edges) == (elements, edges)
            assert len(calls) == (L if distinct is None else min(L, distinct))

    def test_the_memo_keeps_a_bounded_number_of_keys(self):
        # (t a)^n t^-n pinches the new middles a, a^2, .., a^n under t; only
        # the first _MEMO_ENTRIES answers are kept, so t a^n t^-1 looks a^n
        # up again, while t a t^-1 finds the kept answer for a
        g = zoo.torus()
        n = _MEMO_ENTRIES + 4
        tokens = [("t", 1), ("a", 1)] * n + [("t", -1)] * n
        tokens += [("t", 1)] + [("a", 1)] * n + [("t", -1)] + [("t", 1), ("a", 1), ("t", -1)]
        w = word_from_presentation_letters(g, tokens)
        calls = counted_lookup(g, "t")
        form, steps = reduce(g, w, collect_steps=True)
        assert calls == [(k,) for k in range(1, n + 1)] + [(n,)]
        assert len(steps) == n + 2 and form.word == LoopWord("v", ((2 * n + 1,),), ())

    def test_table_lookups_run_on_every_pinch(self):
        # a table edge's lookup is its dict's own get, called on every
        # pinch: keys that count their comparisons with the middle show one
        # per pinch, though the eight pinches repeat two keys
        class CountingKey(int):
            __hash__ = int.__hash__

            def __eq__(self, other):
                compared.append(int(self))
                return int(self) == other

        g = zoo.klein4_star()
        pinch = g._kernel.pinch
        compared = []
        for e, lookup in pinch.items():
            assert type(lookup) is type({}.get)
            pinch[e] = {CountingKey(y): hit for y, hit in lookup.__self__.items()}.get
        form, steps = reduce(g, word_from_presentation_letters(g, "a d a d d a d a"),
                             collect_steps=True)
        assert len(form.word) == 0 and len(steps) == 8
        assert len({(e, middle) for _, e, middle, _, _ in steps}) == 2
        assert compared == [middle for _, _, middle, _, _ in steps]

    def test_the_kernel_keeps_no_per_call_state(self):
        # the identity is kept per vertex; no slot holds a per-call memo
        assert ReductionKernel.__slots__ == (
            "base", "identity", "check", "mul", "ends", "bar", "pinch", "join", "loops")
        g = zoo.torus_whisker()
        kernel = g._kernel
        assert kernel.identity == {v: group.identity() for v, group in g.vgroup.items()}
        reduce(g, word_from_presentation_letters(g, "t a t^-1"))
        assert g._kernel is kernel and set(kernel.pinch) == set(g.graph.edges)

    def test_each_half_edge_joins_with_its_origins_core(self):
        # join[e] is the unchecked product and the identity of e's origin:
        # the very core the group compiles, so a pinch multiplies as the
        # group's checked mul does after its check
        fixtures = pathlib.Path(__file__).parent / "fixtures"
        graphs = [parse_gog(str(path)) for path in sorted(fixtures.glob("*.gog"))]
        for g in graphs + zoo.graphs():
            kernel = g._kernel
            assert set(kernel.join) == set(g.graph.edges)
            for e, (product, one) in kernel.join.items():
                group = g.vgroup[g.graph.d0[e]]
                assert one == group.identity()
                assert product.__code__ is group._mul.__code__
                for x, y in itertools.product(group.generators()[:3], repeat=2):
                    assert product(x, y) == group.mul(x, y)


class TestWordConstruction:
    def test_edge_letter_expands_to_loop(self):
        g = zoo.torus()
        w = word_from_presentation_letters(g, "t")
        assert w.edges == ("t",)
        assert w.elements == ((0,), (0,))

    def test_vertex_letter_is_bare(self):
        g = zoo.torus()
        w = word_from_presentation_letters(g, "a")
        assert w.edges == () and w.elements == ((1,),)

    def test_far_vertex_letter_goes_through_tree(self):
        g = zoo.amalgam23()  # base is u; letter y lives at v
        w = word_from_presentation_letters(g, "y")
        validate_loop_word(g, w)
        assert w.edges == ("e", "e^-1")
        assert w.elements[1] == (1,)

    def test_unknown_letter(self):
        g = zoo.torus()
        with pytest.raises(UnknownLetter, match="'zz' is not a presentation generator"):
            word_from_presentation_letters(g, "zz")
        with pytest.raises(UnknownLetter, match=re.escape("['a'] is not a presentation generator")):
            word_from_presentation_letters(g, [(["a"], 1)])

    def test_tree_letter_expansion_is_trivial_loop(self):
        g = zoo.amalgam23()
        w = word_from_presentation_letters(g, "e")
        assert is_trivial(g, w)

    def test_signs_other_than_one_are_rejected(self):
        g = zoo.torus()
        for token in [("a", 0), ("t", 0), ("a", 2), ("t", -2)]:
            with pytest.raises(UnknownLetter, match=re.escape(repr(token))):
                word_from_presentation_letters(g, [("a", 1), token])

    def test_tokens_that_are_not_pairs_are_unknown_letters(self):
        g = zoo.torus()
        for tokens in (["t"], ["t", ("a", 1)], [("a", 1), 7], [("t", 1, 1)]):
            with pytest.raises(UnknownLetter, match="is not a \\(name, sign\\) letter"):
                word_from_presentation_letters(g, tokens)
        # a two-character string unpacks into a pair: its sign is refused
        with pytest.raises(UnknownLetter, match=re.escape("('t', 'a'): a letter's sign")):
            word_from_presentation_letters(g, ["ta"])

    def test_the_loop_table_is_built_once_per_graph(self, monkeypatch):
        from gogroups import words

        builds = []
        build = words._letter_loops
        monkeypatch.setattr(words, "_letter_loops",
                            lambda g, kernel: (builds.append(g), build(g, kernel))[1])
        graphs = [zoo.torus(), zoo.amalgam23(), zoo.trefoil()]
        for g in graphs:
            reduce(g, parse_loop_word(g, ""))  # names no letter
        assert builds == []
        for _ in range(50):
            for g in graphs:
                letters = pi1_presentation(g).generators
                word_from_presentation_letters(g, " ".join(l.name for l in letters))
                with pytest.raises(UnknownLetter):
                    word_from_presentation_letters(g, "zz")
        assert builds == graphs

    def test_list_tokens_match_tuple_tokens(self):
        g = zoo.amalgam23()
        tokens = [("x", 1), ("y", -1), ("e", 1), ("x", -1)]
        assert word_from_presentation_letters(g, [list(t) for t in tokens]) == (
            word_from_presentation_letters(g, tokens)
        )

    def test_namings_expand_to_the_same_loops_each_indexed_once(self):
        # letters expand under the graph's one naming: any presentation but
        # the graph's own is refused, and the loop table holds one entry per
        # distinct token expanded
        g = zoo.trefoil()
        vertex_letters, edge_letters = presentation_letters(g)

        def renamed(letter):
            return dataclasses.replace(letter, name=letter.name + "_2")

        pres = pi1_presentation(g)
        others = [
            pi1_presentation(g, naming=(
                {v: tuple(renamed(l) for l in ls) for v, ls in vertex_letters.items()},
                {o: renamed(l) for o, l in edge_letters.items()},
            )),
            pi1_presentation(g, naming=(vertex_letters, edge_letters)),  # equal, not the same
        ]
        tokens = [(l.name, s) for l in pres.generators for s in (1, -1)]
        for other in others:
            for ts in (tokens, [(name + "_2", s) for name, s in tokens]):
                with pytest.raises(UnknownLetter, match="the graph's own presentation"):
                    word_from_presentation_letters(g, ts, pres=other)
        assert g._kernel.loops is None
        word_from_presentation_letters(g, [("x", 1), ("x", 1), ("y", -1)])
        loops = g._kernel.loops
        assert set(loops) == set(tokens) and len(tokens) == 2 * len(pres.generators)
        w = word_from_presentation_letters(g, tokens * 2, pres=pres)
        assert word_from_presentation_letters(g, tokens * 2) == w
        assert g._kernel.loops is loops and set(loops) == set(tokens)

    def test_token_indexes_die_with_their_presentations(self):
        # expansion keeps no state per presentation: fresh presentations are
        # refused, none is kept alive, and the loop table stays one entry per
        # letter and sign however many tokens and presentations come and go
        g = zoo.trefoil()
        generators = pi1_presentation(g).generators
        name = generators[0].name
        refs = []
        for _ in range(3000):
            pres = pi1_presentation(g, naming=presentation_letters(g))
            with pytest.raises(UnknownLetter, match="the graph's own presentation"):
                word_from_presentation_letters(g, [(name, 1)], pres=pres)
            word_from_presentation_letters(g, [(name, 1)])
            refs.append(weakref.ref(pres))
        del pres
        gc.collect()
        assert all(r() is None for r in refs)
        assert set(g._kernel.loops) == {(l.name, s) for l in generators for s in (1, -1)}

    def test_raw_syllables_compute_no_generators(self):
        # a kernel for raw syllables never names letters, so reducing a raw
        # word on (Z/2)^6 never runs the generating-set search at all
        table = cyclic_table(2)
        for _ in range(5):
            table = direct_product(table, cyclic_table(2))
        g = GraphOfGroups.make(zoo._graph(["v"], []), {"v": table}, {}, {})
        before = _ft_generating_set.cache_info().currsize
        w = parse_loop_word(g, "v:#3 v:#5")
        assert reduce(g, w).word == LoopWord("v", (table.mul(3, 5),), ())
        assert not is_trivial(g, w)
        assert _ft_generating_set.cache_info().currsize == before


def test_tree_paths_walk_the_tree_from_base():
    # every loop of the letter table runs down the tree path from base to
    # the letter's vertex (or its edge's origin), through the letter's
    # vertex generator (or its edge), and back up the tree path to base
    def walk(h, at, path):
        for e in path:
            assert h.orbit_of(e).plus in h.tree_orbits()
            assert h.graph.d0[e] == at
            at = h.graph.terminus(e)
        # no orbit twice: the path is the unique simple one in the tree
        assert len({h.orbit_of(e) for e in path}) == len(path)
        return at

    for g in zoo.graphs():
        for h in (g, zoo.rebased(g)):
            assert validate_gog(h).ok
            middles = {}  # token -> (where the middle starts, its edges, its element)
            vertex_letters, edge_letters = h._naming
            for v, letters in vertex_letters.items():
                group = h.vgroup[v]
                for l in letters:
                    x = group.generators()[l.index]
                    middles[l.name, 1], middles[l.name, -1] = (v, (), x), (v, (), group.inv(x))
            for plus, l in edge_letters.items():
                for sign, e in ((1, plus), (-1, h.graph.bar[plus])):
                    middles[l.name, sign] = h.graph.d0[e], (e,), None
            word_from_presentation_letters(h, "")
            loops = h._kernel.loops
            assert loops.keys() == middles.keys()
            for token, (head, rest, path) in loops.items():
                v, middle, x = middles[token]
                k = path.index(middle[0]) if middle else len(path) // 2
                assert walk(h, h.base, path[:k]) == v
                assert path[k:k + len(middle)] == middle
                at = h.graph.terminus(middle[0]) if middle else v
                assert walk(h, at, path[k + len(middle):]) == h.base
                one = h.vgroup[h.base].identity()
                elements = (one if head is None else head, *rest)
                assert head != one and len(elements) == len(path) + 1
                positions = [h.base, *(h.graph.terminus(e) for e in path)]
                for i, (at, y) in enumerate(zip(positions, elements)):
                    assert y == x if i == k and not middle else h.vgroup[at].is_identity(y)


class TestGrammar:
    def test_raw_and_letter_modes_agree(self):
        g = zoo.klein()
        raw = parse_loop_word(g, "v:[1] t v:[-1] t^-1")
        lettered = parse_loop_word(g, "a t a^-1 t^-1")
        assert equal(g, raw, lettered)

    def test_format_parse_roundtrip(self):
        g = zoo.klein()
        w = parse_loop_word(g, "v:[1] t v:[-2] t^-1 v:[3]")
        text = format_loop_word(g, w)
        again = parse_loop_word(g, text)
        assert again == w

    def test_bare_identity_formats(self):
        g = zoo.torus()
        w = parse_loop_word(g, "")
        assert format_loop_word(g, w) == "v:[0]"

    def test_raw_mode_position_mismatch(self):
        g = zoo.amalgam23()
        with pytest.raises(NonLoopWord):
            parse_loop_word(g, "v:[1] e")  # the word starts at u, not v

    def test_non_closing_raw_word(self):
        g = zoo.amalgam23()
        with pytest.raises(NonLoopWord):
            parse_loop_word(g, "u:[1] e")

    def test_malformed_words_name_their_fault(self):
        g = zoo.amalgam23()
        for elements, edges in [((), ()), (((0,), (0,)), ()), (((0,),), ("e",))]:
            with pytest.raises(NonLoopWord, match="^need exactly one more vertex element than edges$"):
                LoopWord("u", elements, edges)
        # e^-1 starts at v, but the word is at u
        with pytest.raises(NonLoopWord, match=r"edge e\^-1 does not start at u"):
            validate_loop_word(g, LoopWord("u", ((0,), (0,), (0,)), ("e^-1", "e")))
        at_v = LoopWord("v", ((0,),), ())
        with pytest.raises(NonLoopWord, match="loop words based at different vertices"):
            concat_loops(g, identity_loop(g), at_v)
        with pytest.raises(UnknownLetter, match="'f' is not a half-edge id"):
            parse_loop_word(g, "u:[1] f")


class TestEqualIsEquivalence:
    def test_sampled_equivalence_relation(self):
        rng = random.Random(12)
        g = zoo.trefoil()
        pres = pi1_presentation(g)
        letters = [("x", 1), ("x", -1), ("y", 1), ("y", -1)]

        def sample():
            tokens = [rng.choice(letters) for _ in range(rng.randint(0, 4))]
            return word_from_presentation_letters(g, tokens, pres=pres)

        words = [sample() for _ in range(6)]
        for w in words:
            assert equal(g, w, w)
        for a in words:
            for b in words:
                assert equal(g, a, b) == equal(g, b, a)
        for a in words:
            for b in words:
                for c in words:
                    if equal(g, a, b) and equal(g, b, c):
                        assert equal(g, a, c)


# ---------------------------------------------------------------------------
# the one-pass reducer against the restart-from-the-left reducer


def restart_reduce(g, w):
    """Oracle: after every pinch, scan again from the left for the
    leftmost one.  Returns (elements, edges, steps)."""
    elements, edges, steps = list(w.elements), list(w.edges), []
    pinched = True
    while pinched:
        pinched = False
        for i in range(len(edges) - 1):
            e = edges[i]
            if edges[i + 1] != g.graph.bar[e]:
                continue
            answer = hom_member(g.emap[edges[i + 1]], elements[i + 1])
            if not answer.inside:
                continue
            substituted = hom_apply(g.emap[e], answer.preimage)
            steps.append((i, e, elements[i + 1], answer.preimage, substituted))
            here = g.vgroup[g.graph.d0[e]]
            elements[i : i + 3] = [here.mul(here.mul(elements[i], substituted), elements[i + 2])]
            del edges[i : i + 2]
            pinched = True
            break
    return tuple(elements), tuple(edges), steps


def substitute(h, x):
    """h(x) by direct matrix product or letter substitution, reading only
    ``h.data``: an image computed apart from the library's own."""
    src, dst = h.src, h.dst
    if isinstance(src, FiniteTable):
        return h.data[x]
    if isinstance(src, FreeAbelian) and isinstance(dst, FreeAbelian):
        return tuple(sum(x[j] * h.data[j][i] for j in range(src.rank)) for i in range(dst.rank))
    if isinstance(src, FreeGroup):
        letters = list(x)
    else:  # free abelian of rank <= 1
        k = x[0] if x else 0
        letters = [1 if k > 0 else -1] * abs(k)
    if isinstance(dst, FreeAbelian):
        acc = [0] * dst.rank
        for s in letters:
            for i, a in enumerate(h.data[abs(s) - 1]):
                acc[i] += a if s > 0 else -a
        return tuple(acc)
    if isinstance(dst, FreeGroup):
        out = []
        for s in letters:
            image = h.data[s - 1] if s > 0 else [-t for t in reversed(h.data[-s - 1])]
            for t in image:
                if out and out[-1] == -t:
                    out.pop()
                else:
                    out.append(t)
        return tuple(out)
    acc = dst.id_index
    for s in letters:
        image = h.data[s - 1] if s > 0 else dst.inv_table[h.data[-s - 1]]
        acc = dst.mul_table[acc][image]
    return acc


def test_one_pass_reduce_matches_restart_oracle():
    rng = random.Random(31)
    checked = 0
    reducible = [g for g in zoo.graphs() if classify(g) is DiagramClass.GRAPH_OF_GROUPS]
    reducible += zoo.edge_map_graphs()
    pushout = parse_gog(str(pathlib.Path(__file__).parent / "fixtures" / "pushout46.gog"))
    stored = [zoo.rebased(g) for g in reducible]
    converted = convert_diagram(pushout, QuotientOracle.finite_enumeration(5000))
    for g in reducible + [converted] + stored:
        assert classify(g) is DiagramClass.GRAPH_OF_GROUPS
        pres = pi1_presentation(g)
        letters = [(l.name, s) for l in pres.generators for s in (1, -1)]
        for k in range(60):
            r = [rng.choice(letters) for _ in range(rng.randint(0, 10))]
            c = [rng.choice(letters) for _ in range(rng.randint(0, 2))]
            # every third word is r c r^-1, whose pinches cascade from c
            tokens = r if k % 3 else r + c + [(n, -s) for n, s in reversed(r)]
            w = word_from_presentation_letters(g, tokens, pres=pres)
            form, steps = reduce(g, w, collect_steps=True)
            elements, edges, oracle_steps = restart_reduce(g, w)
            assert steps == oracle_steps
            # each step on its own: the preimage maps onto the middle, and
            # the substituted element is its image on the other side
            for _pos, e, middle, preimage, substituted in steps:
                assert substitute(g.emap[g.graph.bar[e]], preimage) == middle
                assert substitute(g.emap[e], preimage) == substituted
            assert (form.word.elements, form.word.edges) == (elements, edges)
            assert form.word.base == w.base
            checked += 1
    assert checked > 900


def test_long_torus_word_is_linear():
    # t^L a t^-L a^-1 with L = 8000: quadratic expansion and reduction
    # took about 8 s; linear ones take a small fraction of the budget
    g = zoo.torus()
    pres = pi1_presentation(g)
    L = 8000
    tokens = [("t", 1)] * L + [("a", 1)] + [("t", -1)] * L + [("a", -1)]
    start = time.perf_counter()
    w = word_from_presentation_letters(g, tokens, pres=pres)
    form, steps = reduce(g, w, collect_steps=True)
    elapsed = time.perf_counter() - start
    assert len(w) == 2 * L and len(steps) == L
    assert len(form.word) == 0 and g.vgroup[g.base].is_identity(form.word.elements[0])
    assert elapsed < 2.0, f"expand + reduce took {elapsed:.2f} s"


def test_base_power_x8000_expands_under_a_second():
    # x^8000 on the trefoil: each join copied the growing element and
    # reduced it again, about 3 s; the seam join still copies it, so the
    # expansion stays quadratic, but it slices in C, in about 0.2 s
    g = zoo.trefoil()
    start = time.perf_counter()
    w = word_from_presentation_letters(g, [("x", 1)] * 8000)
    elapsed = time.perf_counter() - start
    assert w == LoopWord("u", ((1,) * 8000,), ())
    assert elapsed < 1.0, f"expansion took {elapsed:.2f} s"


def test_long_trefoil_pinch_is_linear():
    # e y^6000 e^-1 pinches to x^4000 through c^2000: a checked product per
    # letter of the image took about 1.1 s; compiled cores take linear time
    g = zoo.trefoil()
    n = 6000
    w = LoopWord("u", ((), (1,) * n, ()), ("e", "e^-1"))
    start = time.perf_counter()
    form, steps = reduce(g, w, collect_steps=True)
    elapsed = time.perf_counter() - start
    assert steps == [(0, "e", (1,) * n, (1,) * (n // 3), (1,) * (2 * n // 3))]
    assert form.word == LoopWord("u", ((1,) * (2 * n // 3),), ())
    assert elapsed < 0.1, f"reduce took {elapsed:.3f} s"
    # seeded powers, against letter substitution
    rng = random.Random(6000)
    for _ in range(40):
        k = rng.randint(-300, 300)
        middle = (1 if k > 0 else -1,) * abs(k)
        for e in ("e", "e^-1"):
            w = LoopWord(g.graph.d0[e], ((), middle, ()), (e, g.graph.bar[e]))
            _, steps = reduce(g, w, collect_steps=True)
            if k % (3 if e == "e" else 2):
                assert steps == []
                continue
            [(_, _, _, preimage, substituted)] = steps
            assert substitute(g.emap[g.graph.bar[e]], preimage) == middle
            assert substitute(g.emap[e], preimage) == substituted


# ---------------------------------------------------------------------------
# pinned pinch steps


PINCH_DIGESTS = pathlib.Path(__file__).parent / "golden" / "pinch-steps-digests.txt"


def seeded_words(g, rng):
    """Sixty letter words of up to 12 letters; every third is r c r^-1, whose
    pinches cascade from c."""
    pres = pi1_presentation(g)
    letters = [(l.name, s) for l in pres.generators for s in (1, -1)]
    for k in range(60):
        r = [rng.choice(letters) for _ in range(rng.randint(0, 12))]
        c = [rng.choice(letters) for _ in range(rng.randint(0, 2))]
        tokens = r if k % 3 else r + c + [(n, -s) for n, s in reversed(r)]
        yield word_from_presentation_letters(g, tokens, pres=pres)


def long_word_shapes(rng):
    """(label, graph, tokens): r r^-1, r c r^-1 and, on the one-vertex
    graphs, t^L a t^-L a^-1, where r has no pinch of its own (t keeps one
    sign between a^+-1; x^+-1 alternates with y^+-1 on the amalgams)."""
    graphs = {"torus": (zoo.torus(), "a", (250, 1000)), "klein": (zoo.klein(), "a", (250, 1000)),
              "trefoil": (zoo.trefoil(), "x", (100, 300)),
              "amalgam-2-3": (zoo.amalgam23(), "x", (100, 300))}
    for name, (g, c, lengths) in graphs.items():
        for half in lengths:
            if c == "a":
                sign = rng.choice((1, -1))
                r = [l for _ in range(half // 2) for l in (("t", sign), ("a", rng.choice((1, -1))))]
            else:
                first, second = rng.sample(["x", "y"], 2)
                r = [(n, rng.choice((1, -1))) for _ in range(half // 2) for n in (first, second)]
            inverse = [(n, -s) for n, s in reversed(r)]
            yield f"{name} r.r^-1 L={half}", g, r + inverse
            yield f"{name} r.c.r^-1 L={half}", g, r + [(c, 1)] + inverse
            if c == "a":
                power = half + rng.randint(0, 1)
                word = [("t", 1)] * power + [("a", 1)] + [("t", -1)] * power + [("a", -1)]
                yield f"{name} t^L.a.t^-L.a^-1 L={power}", g, word


def pinch_digest(g, words):
    """sha256 over each word's pinch steps and pinch-free form."""
    digest = hashlib.sha256()
    for w in words:
        form, steps = reduce(g, w, collect_steps=True)
        digest.update(repr((form.word.base, form.word.elements, form.word.edges, steps)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def pinch_digest_lines():
    lines = []
    rng = random.Random(1717)
    named = [(f"graphs()[{i}]", g) for i, g in enumerate(zoo.graphs())]
    named += [(f"edge_map_graphs()[{i}]", g) for i, g in enumerate(zoo.edge_map_graphs())]
    for name, g in named:
        if classify(g) is not DiagramClass.GRAPH_OF_GROUPS:
            continue
        lines.append(f"{name}: {pinch_digest(g, seeded_words(g, rng))}")
        stored = zoo.rebased(g)
        lines.append(f"{name} rebased: {pinch_digest(stored, seeded_words(stored, rng))}")
    for label, g, tokens in long_word_shapes(rng):
        word = word_from_presentation_letters(g, tokens, pres=pi1_presentation(g))
        lines.append(f"{label}: {pinch_digest(g, [word])}")
    return lines


def test_pinch_steps_match_their_digests():
    expected = PINCH_DIGESTS.read_text().splitlines()
    got = pinch_digest_lines()
    changed = [line for line in difflib.ndiff(expected, got) if line[:2] in ("- ", "+ ")]
    assert not changed, f"pinch steps differ from {PINCH_DIGESTS.name}:\n" + "\n".join(changed)
