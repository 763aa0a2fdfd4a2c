import random
from fractions import Fraction

import pytest

import zoo
from gogroups.errors import NonLoopWord, UnknownLetter, UnsupportedClass
from gogroups.gog import pi1_presentation, validate_gog
from gogroups.groups import hom_apply
from gogroups.words import (
    LoopWord,
    concat_loops,
    equal,
    format_loop_word,
    inverse_loop,
    is_trivial,
    parse_loop_word,
    reduce,
    tree_path,
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

    def test_reduce_rejects_diagrams(self):
        g = zoo.pushout46()
        base_loop = LoopWord("u", (0,), ())
        with pytest.raises(UnsupportedClass):
            reduce(g, base_loop)


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
        with pytest.raises(UnknownLetter):
            word_from_presentation_letters(g, "zz")

    def test_tree_letter_expansion_is_trivial_loop(self):
        g = zoo.amalgam23()
        w = word_from_presentation_letters(g, "e")
        assert is_trivial(g, w)


def zoo_graphs():
    return [
        zoo.torus(),
        zoo.klein(),
        zoo.bs12(),
        zoo.two_loop_trivial(),
        zoo.amalgam23(),
        zoo.trefoil(),
        *(zoo.dyadic(k) for k in range(2, 6)),
        zoo.star3(),
        zoo.pushout46(),
        zoo.z3f2(),
        zoo.finite_star(),
        zoo.chain48(),
        zoo.chain39(),
        zoo.k4_leaf(),
        zoo.klein4_star(),
        zoo.torus_whisker(),
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


def test_tree_paths_walk_the_tree_from_base():
    for g in zoo_graphs():
        stored = g.replace(tree=last_first_tree(g), base=max(g.graph.vertices))
        for h in (g, stored):
            assert validate_gog(h).ok
            tree = h.tree_orbits()
            for v in h.graph.vertices:
                path = tree_path(h, v)
                at = h.base
                for e in path:
                    assert h.orbit_of(e).plus in tree
                    assert h.graph.d0[e] == at
                    at = h.graph.terminus(e)
                assert at == v
                # no orbit twice: the path is the unique simple one in the tree
                assert len({h.orbit_of(e) for e in path}) == len(path)


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
