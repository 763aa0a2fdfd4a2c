import difflib
import functools
import hashlib
import itertools
import math
import pathlib
import random
import re
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zoo
from gogroups.analysis import product_rank_family
from gogroups.errors import GogError, ShapeMismatch, UnsupportedHom
from gogroups.groups import (
    FiniteTable,
    FreeAbelian,
    FreeGroup,
    Hom,
    _ft_closure,
    _ft_cover,
    _ft_generating_set,
    _ft_rank_bound,
    cogenerator,
    compose,
    cyclic_table,
    dihedral_table,
    direct_product,
    format_element,
    geometric_rank_class,
    group_rank,
    hom_apply,
    hom_is_injective,
    hom_member,
    inverse,
    is_isomorphism,
    is_surjective,
    parse_element,
    subgroup_table,
    table_from_closure,
)
from gogroups.folding import free_reduce
from gogroups.gogfile import hom_descriptor, parse_gog, parse_hom


class TestElements:
    def test_free_abelian_mul(self):
        g = FreeAbelian(2)
        assert g.mul((1, 0), (0, 3)) == (1, 3)
        assert g.inv((2, -1)) == (-2, 1)
        assert g.identity() == (0, 0)

    def test_free_reduction(self):
        g = FreeGroup(2, ("a", "b"))
        # ab * b^-1 a = aa
        assert g.mul((1, 2), (-2, 1)) == (1, 1)
        assert g.mul((1,), (-1,)) == ()

    def test_table_inverse(self):
        z4 = cyclic_table(4)
        assert z4.inv(1) == 3

    def test_shape_mismatch(self):
        g = FreeAbelian(2)
        with pytest.raises(ShapeMismatch):
            g.mul((1,), (0, 0))
        with pytest.raises(ShapeMismatch):
            cyclic_table(3).mul(1, 5)
        with pytest.raises(ShapeMismatch):
            FreeGroup(1).check((2,))

    def test_bad_table_rejected(self):
        with pytest.raises(ValueError):
            FiniteTable(("e", "a"), ((0, 1), (1, 1)), 0)  # a lacks inverse
        with pytest.raises(ValueError):
            # left-identity only fails the identity axiom
            FiniteTable(("e", "a"), ((0, 1), (0, 1)), 0)

    def test_table_error_texts(self):
        cases = [
            ((), (), 0, "empty table"),
            (("e",), ((0,), (0,)), 0, "table shape mismatch"),
            (("e", "a"), ((0, 1), (1,)), 0, "table shape mismatch"),
            (("e", "a"), ((0, 1), (1, 2)), 0, "table entry out of range"),
            (("e", "a"), ((0, -1), (1, 0)), 0, "table entry out of range"),
            (("e", "a"), ((0, 1), (1, 0)), 2, "identity index out of range"),
            (("e", "a"), ((0, 1), (0, 1)), 0, "identity row/column violated"),
            (("e", "a"), ((0, 0), (1, 0)), 0, "identity row/column violated"),
            # row 1 has no right inverse
            (("e", "a", "b"), ((0, 1, 2), (1, 1, 2), (2, 0, 1)), 0,
             "element 1 lacks a two-sided inverse"),
            # row 1 has two right inverses
            (("e", "a", "b"), ((0, 1, 2), (1, 0, 0), (2, 0, 1)), 0,
             "element 1 lacks a two-sided inverse"),
            # 1 * 2 = e but 2 * 1 != e: a one-sided inverse
            (("e", "a", "b"), ((0, 1, 2), (1, 2, 0), (2, 2, 1)), 0,
             "element 1 lacks a two-sided inverse"),
            # rows 0 and 1 pass; the first failing row is named
            (("e", "a", "b", "c"), ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 2, 1), (3, 2, 0, 1)), 0,
             "element 2 lacks a two-sided inverse"),
            # the identity need not be index 0
            (("a", "e"), ((0, 0), (0, 1)), 1, "element 0 lacks a two-sided inverse"),
        ]
        for labels, mul, e, message in cases:
            with pytest.raises(ValueError) as info:
                FiniteTable(labels, mul, e)
            assert str(info.value) == message, (mul, e)

    def test_checked_catches_nonassociative(self):
        # a "subtraction mod 3" table: has identity-ish row but fails associativity
        mul = [[(i - j) % 3 for j in range(3)] for i in range(3)]
        with pytest.raises(ValueError):
            FiniteTable(("0", "1", "2"), mul, 0)
        FiniteTable(("e", "a", "a2"), [[(i + j) % 3 for j in range(3)] for i in range(3)], 0)

    def test_checked_names_the_first_nonassociative_triple(self):
        # a loop of order 5: a Latin square with identity 0, so it passes
        # every check but associativity, as (1*1)*2 = 2 while 1*(1*2) = 0
        rows = [(0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0)]
        with pytest.raises(ValueError, match=r"^associativity fails at \(1,1,2\)$"):
            FiniteTable(tuple("abcde"), rows, 0)


class TestHomApply:
    def test_doubling_matrix(self):
        h = Hom.matrix(FreeAbelian(1), FreeAbelian(1), [[2]])
        assert hom_apply(h, (3,)) == (6,)

    def test_identity_matrix(self):
        h = Hom.identity(FreeAbelian(3))
        assert hom_apply(h, (4, -1, 0)) == (4, -1, 0)

    def test_free_to_table(self):
        h = Hom.images(FreeGroup(2, ("a", "b")), cyclic_table(2), [1, 1])
        assert hom_apply(h, (1, 2, -1, 2)) == 0  # aba^-1b has even length

    def test_free_abelian_data_is_checked(self):
        z2, z3 = FreeAbelian(2), FreeAbelian(3)
        with pytest.raises(ShapeMismatch, match=r"^\(0, 1\) is not a Z\^3 element$"):
            Hom.images(z2, z3, [(1, 0, 0), (0, 1)])
        with pytest.raises(ShapeMismatch, match=r"^\(1, 0, 0, 5\) is not a Z\^3 element$"):
            Hom.images(z2, z3, [(1, 0, 0, 5), (0, 1, 0, 0)])
        for entry in (1.5, "2", None):
            with pytest.raises(ShapeMismatch) as info:
                Hom.matrix(FreeAbelian(1), FreeAbelian(1), [[entry]])
            assert str(info.value) == f"matrix entry {entry!r} is not an integer"
        for src, dst, rows, message in (
            (FreeAbelian(1), FreeAbelian(1), [[1, 2]], "matrix must be 1 x 1"),
            (FreeAbelian(2), FreeAbelian(1), [[1]], "matrix must be 1 x 2"),
            (FreeAbelian(1), FreeAbelian(2), [[1]], "matrix must be 2 x 1"),
            (FreeAbelian(0), FreeAbelian(1), [], "matrix must be 1 x 0"),
        ):
            with pytest.raises(ShapeMismatch) as info:
                Hom.matrix(src, dst, rows)
            assert str(info.value) == message

    def test_table_hom_names_the_first_non_multiplicative_pair(self):
        # the first failing (i, j) in row-major order, found by a full scan
        rng = random.Random(11)
        stock = [cyclic_table(4), cyclic_table(6), dihedral_table(3), dihedral_table(4),
                 direct_product(cyclic_table(2), cyclic_table(2))]
        checked = 0
        for _ in range(200):
            src, dst = rng.choice(stock), rng.choice(stock)
            data = [rng.randrange(dst.order()) for _ in src.elements()]
            data[src.id_index] = dst.id_index
            first = next(
                ((i, j) for i in src.elements() for j in src.elements()
                 if data[src.mul_table[i][j]] != dst.mul_table[data[i]][data[j]]),
                None,
            )
            if first is None:
                Hom.table(src, dst, data)
                continue
            with pytest.raises(ShapeMismatch) as info:
                Hom.table(src, dst, data)
            assert str(info.value) == "not multiplicative at ({},{})".format(*first)
            checked += 1
        assert checked > 150
        # 1 -> 1 but 1 + 1 -> 3: row 0 holds, row 1 fails at its second column
        z4 = cyclic_table(4)
        with pytest.raises(ShapeMismatch, match=r"^not multiplicative at \(1,1\)$"):
            Hom.table(z4, z4, [0, 1, 3, 2])
        for data, message in (
            ([0, 1, 2], "element map must cover the whole source"),
            ([0, 1, 2, 4], "4 is not an index into a table of size 4"),
            ([1, 0, 3, 2], "identity must map to identity"),
        ):
            with pytest.raises(ShapeMismatch) as info:
                Hom.table(z4, z4, data)
            assert str(info.value) == message

    def test_matrix_rows_are_stored_as_generator_images(self):
        rng = random.Random(17)
        for _ in range(60):
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            src, dst = FreeAbelian(m), FreeAbelian(n)
            rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
            h = Hom.matrix(src, dst, rows)
            columns = [tuple(row[j] for row in rows) for j in range(m)]
            assert h == Hom.images(src, dst, columns)
            assert hom_descriptor(h) == {"matrix": rows}

    def test_multiplicative_randomized(self):
        rng = random.Random(5)
        z2 = FreeAbelian(2)
        z6 = cyclic_table(6)
        f2 = FreeGroup(2)
        homs = [
            (Hom.matrix(z2, FreeAbelian(3), [[1, 2], [0, 1], [-1, 3]]), z2),
            (Hom.images(f2, z6, [2, 3]), f2),
            (Hom.images(f2, FreeGroup(2), [(1, 2), (2,)]), f2),
            (Hom.images(FreeAbelian(1), FreeGroup(2), [(1, 2, -1)]), FreeAbelian(1)),
        ]
        for h, src in homs:
            for _ in range(25):
                x, y = _random_element(rng, src), _random_element(rng, src)
                assert hom_apply(h, src.mul(x, y)) == h.dst.mul(hom_apply(h, x), hom_apply(h, y))
                assert hom_member(h, hom_apply(h, x)).inside
            assert hom_apply(h, src.identity()) == h.dst.identity()

    def test_images_equal_letter_by_letter_products(self):
        # every image-hom class pair against the reference: one checked
        # dst.mul per letter of the spelled source element
        rng = random.Random(23)
        targets = [FreeGroup(2), FreeGroup(3), FreeAbelian(2), cyclic_table(6), dihedral_table(3)]
        checked = 0
        for _ in range(120):
            dst = rng.choice(targets)
            sources = [FreeGroup(1), FreeGroup(2), FreeGroup(3), FreeAbelian(0), FreeAbelian(1)]
            if isinstance(dst, FreeAbelian):
                sources.append(FreeAbelian(3))
            src = rng.choice(sources)
            images = [_random_element(rng, dst) for _ in range(src.rank)]
            h = Hom.images(src, dst, images)
            for _ in range(10):
                x = src.identity()
                for _ in range(rng.randint(0, 12)):
                    x = src.mul(x, _random_element(rng, src))
                expected = dst.identity()
                for s in src.spell(x):
                    expected = dst.mul(expected, images[s - 1] if s > 0 else dst.inv(images[-s - 1]))
                assert hom_apply(h, x) == expected
                checked += 1
        assert checked == 1200

    def test_free_target_image_is_linear(self):
        # F1 -> F2, c -> a b a^-1, on c^4000: one checked product per letter
        # took about 1.8 s; one reduction of the concatenated images is linear
        h = Hom.images(FreeGroup(1), FreeGroup(2), [(1, 2, -1)])
        for word in ((1,) * 4000, (-1,) * 4000):
            start = time.perf_counter()
            image = hom_apply(h, word)
            elapsed = time.perf_counter() - start
            assert image == (1,) + (2 * word[0],) * 4000 + (-1,)
            assert elapsed < 0.1, f"hom_apply on 4000 letters took {elapsed:.3f} s"


class TestInjectivity:
    def test_doubling_injective(self):
        assert hom_is_injective(Hom.matrix(FreeAbelian(1), FreeAbelian(1), [[2]]))
        assert hom_is_injective(Hom.images(FreeGroup(1), FreeAbelian(2), [(2, 4)]))

    def test_rank_deficient_not_injective(self):
        assert not hom_is_injective(Hom.matrix(FreeAbelian(2), FreeAbelian(1), [[1, 1]]))
        # F2 onto the standard basis of Z^2 kills the commutator
        assert not hom_is_injective(Hom.images(FreeGroup(2), FreeAbelian(2), [(1, 0), (0, 1)]))
        assert not hom_is_injective(Hom.images(FreeGroup(1), FreeAbelian(2), [(0, 0)]))

    def test_free_collapse_not_injective(self):
        h = Hom.images(FreeGroup(2), FreeGroup(1), [(1,), (1,)])
        assert not hom_is_injective(h)
        assert not hom_is_injective(Hom.images(FreeAbelian(1), FreeGroup(2), [()]))

    def test_free_embedding_injective(self):
        h = Hom.images(FreeGroup(2), FreeGroup(2), [(1, 1), (2,)])
        assert hom_is_injective(h)
        assert hom_is_injective(Hom.images(FreeAbelian(1), FreeGroup(2), [(1, 2, -1)]))

    def test_table_injectivity_matches_kernel_scan(self):
        z12 = cyclic_table(12)
        z6 = cyclic_table(6)
        for k in range(6):
            mapping = [(k * i) % 6 for i in range(12)]
            try:
                h = Hom.table(z12, z6, mapping)
            except ShapeMismatch:
                continue
            scan = sum(1 for y in mapping if y == 0) == 1
            assert hom_is_injective(h) == scan

    def test_free_to_finite_never_injective(self):
        assert not hom_is_injective(Hom.images(FreeGroup(1), cyclic_table(5), [1]))

    def test_trivial_sources_injective(self):
        assert hom_is_injective(Hom.trivial(FreeAbelian(0), cyclic_table(4)))
        assert hom_is_injective(Hom.trivial(FreeGroup(0), FreeGroup(2)))


class TestMembership:
    def test_doubling_membership(self):
        h = Hom.matrix(FreeAbelian(1), FreeAbelian(1), [[2]])
        assert hom_member(h, (4,)) == type(hom_member(h, (4,)))(True, (2,))
        assert not hom_member(h, (3,)).inside

    def test_identity_membership(self):
        h = Hom.identity(FreeAbelian(2))
        ans = hom_member(h, (7, -2))
        assert ans.inside and ans.preimage == (7, -2)

    def test_folding_membership_with_preimage(self):
        f2 = FreeGroup(2, ("a", "b"))
        h = Hom.images(f2, f2, [(1, 1), (2,)])  # a -> a^2, b -> b
        assert not hom_member(h, (1, 2)).inside
        ans = hom_member(h, (1, 1, 2))
        assert ans.inside and ans.preimage == (1, 2)
        assert hom_apply(h, ans.preimage) == (1, 1, 2)

    def test_table_membership(self):
        z4, z2 = cyclic_table(4), cyclic_table(2)
        h = Hom.table(z4, z2, [0, 1, 0, 1])
        ans = hom_member(h, 1)
        assert ans.inside and hom_apply(h, ans.preimage) == 1

    def test_table_membership_gives_the_least_preimage(self):
        z6, z3 = cyclic_table(6), cyclic_table(3)
        h = Hom.table(z6, z3, [0, 1, 2, 0, 1, 2])
        assert [hom_member(h, y).preimage for y in range(3)] == [0, 1, 2]
        h = Hom.table(z3, z6, [0, 2, 4])
        assert [hom_member(h, y).inside for y in range(6)] == [True, False] * 3
        assert hom_member(h, 4).preimage == 2

    def test_preimage_roundtrip_randomized(self):
        rng = random.Random(11)
        f2 = FreeGroup(2)
        h = Hom.images(f2, FreeGroup(3), [(1, 2), (3, 3)])
        for _ in range(40):
            w = ()
            for _ in range(rng.randint(0, 5)):
                w = f2.mul(w, (rng.choice([1, -1, 2, -2]),))
            y = hom_apply(h, w)
            ans = hom_member(h, y)
            assert ans.inside
            assert hom_apply(h, ans.preimage) == y


class TestCogenerator:
    def test_doubling_cogenerator(self):
        h = Hom.matrix(FreeAbelian(1), FreeAbelian(1), [[2]])
        assert cogenerator(h) == (1,)

    def test_identity_surjective(self):
        assert cogenerator(Hom.identity(FreeAbelian(2))) is None
        assert cogenerator(Hom.identity(cyclic_table(5))) is None
        assert cogenerator(Hom.identity(FreeGroup(2))) is None

    def test_snf_picks_torsion_coset(self):
        h = Hom.matrix(FreeAbelian(2), FreeAbelian(2), [[1, 0], [0, 2]])
        cog = cogenerator(h)
        assert cog == (0, 1)
        assert not hom_member(h, cog).inside

    def test_cogenerator_always_outside(self):
        rng = random.Random(23)
        for _ in range(60):
            n, m = rng.randint(1, 3), rng.randint(0, 3)
            h = Hom.matrix(
                FreeAbelian(m),
                FreeAbelian(n),
                [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)],
            )
            cog = cogenerator(h)
            if cog is None:
                assert is_surjective(h)
            else:
                assert not hom_member(h, cog).inside

    def test_rank_zero_source_misses_the_first_basis_vector(self):
        h = Hom.matrix(FreeAbelian(0), FreeAbelian(2), [[], []])
        assert cogenerator(h) == (1, 0)

    def test_free_cogenerator(self):
        h = Hom.images(FreeGroup(2), FreeGroup(2), [(1, 1), (2,)])
        cog = cogenerator(h)
        assert cog == (1,)
        assert not hom_member(h, cog).inside

    def test_table_cogenerator(self):
        z4, z2 = cyclic_table(4), cyclic_table(2)
        incl = Hom.table(z2, z4, [0, 2])
        cog = cogenerator(incl)
        assert cog == 1 and not hom_member(incl, cog).inside


class TestComposeInverse:
    def test_matrix_compose(self):
        a = Hom.matrix(FreeAbelian(1), FreeAbelian(1), [[2]])
        b = Hom.matrix(FreeAbelian(1), FreeAbelian(1), [[3]])
        assert compose(b, a).data == ((6,),)

    def test_inverse_of_unimodular(self):
        h = Hom.matrix(FreeAbelian(2), FreeAbelian(2), [[1, 1], [0, 1]])
        hinv = inverse(h)
        assert compose(hinv, h).data == ((1, 0), (0, 1))
        # seeded unimodular rows: rows @ inverse == I fixes the inverse
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(8):
                i, j = rng.randrange(n), rng.randrange(n)
                if i == j:
                    rows[i] = [-a for a in rows[i]]
                else:
                    k = rng.randint(-3, 3)
                    rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
            z = FreeAbelian(n)
            inv = inverse(Hom.matrix(z, z, rows)).data  # column j is inv[j]
            for i in range(n):
                assert [sum(a * b for a, b in zip(rows[i], inv[j])) for j in range(n)] == [
                    int(i == j) for j in range(n)
                ]

    def test_table_inverse(self):
        z4 = cyclic_table(4)
        neg = Hom.table(z4, z4, [0, 3, 2, 1])
        assert is_isomorphism(neg)
        assert inverse(neg).data == (0, 3, 2, 1)

    def test_free_inverse_via_folding(self):
        f2 = FreeGroup(2)
        h = Hom.images(f2, f2, [(2,), (1,)])  # swap letters
        hinv = inverse(h)
        for w in [(1,), (2,), (1, 2), (-2, 1)]:
            assert hom_apply(hinv, hom_apply(h, w)) == w

    def test_mixed_compose(self):
        # Z -> F2 -> Z/6 composite stays applicable
        a = Hom.images(FreeAbelian(1), FreeGroup(2), [(1, 2)])
        b = Hom.images(FreeGroup(2), cyclic_table(6), [2, 3])
        c = compose(b, a)
        assert hom_apply(c, (1,)) == 5
        assert hom_apply(c, (6,)) == cyclic_table(6).power(5, 6)

    def test_unsupported_shapes_rejected(self):
        stock = [FreeAbelian(1), FreeGroup(1), cyclic_table(2)]
        cases = []
        for src, dst in itertools.product(stock, repeat=2):
            if not (isinstance(src, FreeAbelian) and isinstance(dst, FreeAbelian)):
                cases.append((Hom.matrix, src, dst, "matrix homs need free abelian source and target"))
            if not (isinstance(src, FiniteTable) and isinstance(dst, FiniteTable)):
                cases.append((Hom.table, src, dst, "table homs need finite source and target"))
            if isinstance(src, FiniteTable) and not isinstance(dst, FiniteTable):
                cases.append((Hom.images, src, dst, "use a full element map for finite sources"))
        rank2 = "free abelian sources of rank >= 2 are only supported onto free abelian targets"
        cases.append((Hom.images, FreeAbelian(2), FreeGroup(2), rank2))
        cases.append((Hom.images, FreeAbelian(2), cyclic_table(2), rank2))
        assert len(cases) == 20
        for ctor, src, dst, message in cases:
            with pytest.raises(UnsupportedHom) as info:
                ctor(src, dst, [dst.identity()] * len(src.generators()))
            assert str(info.value) == message


class TestHomRefusals:
    def test_image_counts(self):
        with pytest.raises(ShapeMismatch, match="one image per source generator required"):
            Hom.images(FreeGroup(2), cyclic_table(2), [1])
        with pytest.raises(ShapeMismatch, match="one image per source generator required"):
            Hom.from_generator_images(cyclic_table(4), cyclic_table(2), [1, 1])

    def test_generator_images_are_elements(self):
        z2, z4 = cyclic_table(2), cyclic_table(4)
        for build in (lambda: Hom.from_generator_images(z2, z2, [-1]),
                      lambda: Hom.images(z4, z4, [-1]),
                      lambda: Hom.images(FreeGroup(1), z2, [-1])):
            with pytest.raises(ShapeMismatch, match=r"^-1 is not an index into a table of size \d$"):
                build()
        with pytest.raises(ShapeMismatch, match="^5 is not an index into a table of size 2$"):
            Hom.from_generator_images(z2, z2, [5])

    def test_table_pairs(self):
        z4, z2 = cyclic_table(4), cyclic_table(2)
        # images of a table pair extend from the generating set
        assert Hom.images(z4, z2, [1]) == Hom.from_generator_images(z4, z2, [1])
        assert Hom.images(z4, z2, [1]).data == (0, 1, 0, 1)
        assert Hom.trivial(z4, z2).data == (0, 0, 0, 0)

    def test_compose_and_inverse(self):
        z2, z3 = cyclic_table(2), cyclic_table(3)
        with pytest.raises(ShapeMismatch, match="homs do not compose: middle groups differ"):
            compose(Hom.identity(z2), Hom.identity(z3))
        # the constructors refuse a finite source onto an infinite target,
        # so one is forged to reach compose's own guard
        forged = Hom.identity(z2)
        object.__setattr__(forged, "dst", FreeGroup(1))
        with pytest.raises(UnsupportedHom, match="finite source composites must land in a finite group"):
            compose(forged, Hom.identity(z2))
        with pytest.raises(ShapeMismatch, match="hom is not an isomorphism"):
            inverse(Hom.matrix(FreeAbelian(1), FreeAbelian(1), [[2]]))


def _first_non_multiplicative(src, dst, data):
    """The reference: the first (i, j) in row-major order with
    h(ij) != h(i) h(j), by a scan of all n^2 pairs; None for a hom."""
    return next(((i, j) for i in src.elements() for j in src.elements()
                 if data[src.mul_table[i][j]] != dst.mul_table[data[i]][data[j]]), None)


def _first_nonassociative(rows):
    """The reference: the first (a, b, c) with (ab)c != a(bc) in the table
    ``rows``, by the cubic scan."""
    n = range(len(rows))
    return next(((a, b, c) for a in n for b in n for c in n
                 if rows[rows[a][b]][c] != rows[a][rows[b][c]]), None)


def _random_magma(rng, n):
    """(labels, rows, identity) of a table that passes every check of the
    constructor but associativity, and is mostly not associative: identity
    0, an involution pairing each element with its inverse, and every other
    entry drawn from the non-identity elements."""
    others = list(range(1, n))
    rng.shuffle(others)
    inv = list(range(n))
    while len(others) > 1 and rng.random() < 0.7:
        a, b = others.pop(), others.pop()
        inv[a], inv[b] = b, a
    rows = [list(range(n))]
    for i in range(1, n):
        rows.append([i if j == 0 else 0 if j == inv[i] else rng.randrange(1, n) for j in range(n)])
    return tuple(map(str, range(n))), rows, 0


def _reference_rank_bound(table):
    """max over primes p | n of log_p [G : G'G^p], with G' spanned by all
    n^2 commutators and every closure a fresh search."""
    t, inv, e, n = table.mul_table, table.inv_table, table.id_index, table.order()

    def span(elements):
        seen, frontier = {e}, [e]
        while frontier:
            row = t[frontier.pop()]
            for g in elements:
                if row[g] not in seen:
                    seen.add(row[g])
                    frontier.append(row[g])
        return seen

    derived = span({t[t[inv[x]][inv[y]]][t[x][y]] for x in range(n) for y in range(n)})
    bound = 0
    for p in (p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))):
        powers = set()
        for x in range(n):
            y = e
            for _ in range(p):
                y = t[y][x]
            powers.add(y)
        index = n // len(span(derived | powers))
        bound = max(bound, round(math.log(index, p)) if index > 1 else 0)
    return bound


def _rank_sweep_tables():
    """The hom stock of the rank sweep benchmark, and the direct products it
    ranks: those in the stock, (Z/2)^4 and Z/base x (Z/2)^m for m = 1..3."""
    z2 = cyclic_table(2)
    products = [direct_product(z2, z2), direct_product(cyclic_table(4), z2),
                _power(z2, 3), direct_product(cyclic_table(3), cyclic_table(3))]
    stock = [cyclic_table(n) for n in range(2, 17)] + products + [
        dihedral_table(3), dihedral_table(4), dihedral_table(6), dihedral_table(8)]
    return stock, products + [_power(z2, 4)] + [
        functools.reduce(direct_product, [z2] * m, cyclic_table(base))
        for m, base in itertools.product(range(1, 4), range(1, 5))
    ]


def _same_fields(table, reference):
    assert table.labels == reference.labels
    assert table.mul_table == reference.mul_table
    assert table.id_index == reference.id_index
    assert table.inv_table == reference.inv_table
    assert hash(table) == hash(reference)
    assert type(table.labels) is tuple and {type(row) for row in table.mul_table} == {tuple}


class TestTrustedTables:
    """Table homs are checked over the source's greedy cover, the
    constructor runs Light's test over it, and subgroup and product tables
    are built without a second check; each against a reference that checks
    all."""

    def test_the_cover_reaches_every_element(self):
        # the constructor reads the cover before it knows the table is
        # associative, so loops, which it refuses, are read by stand-ins
        rng = random.Random(29)
        loops = [_random_magma(rng, n) for n in range(1, 8) for _ in range(5)]
        tables = [(t.mul_table, t.id_index) for t in _search_corpus()[::3]]
        for rows, e in tables + [(rows, e) for _, rows, e in loops]:
            cover = _ft_cover.__wrapped__(types.SimpleNamespace(mul_table=rows, id_index=e))
            assert list(cover) == sorted(set(cover)) and e not in cover
            reached, frontier = {e}, [e]
            while frontier:
                row = rows[frontier.pop()]
                for s in cover:
                    if row[s] not in reached:
                        reached.add(row[s])
                        frontier.append(row[s])
            assert reached == set(range(len(rows))), rows
        assert _ft_cover(cyclic_table(12)) == (1,)
        assert len(_ft_cover(_power(cyclic_table(2), 5))) == 5
        assert _ft_cover(cyclic_table(1)) == ()

    def test_table_hom_verdicts_match_the_full_scan(self):
        # every identity-preserving map between small tables whose count is
        # at most 4,096, then seeded random maps and homs to D6 and (Z/2)^3
        small = [cyclic_table(n) for n in range(1, 7)] + [
            dihedral_table(3), dihedral_table(4), direct_product(cyclic_table(2), cyclic_table(2))]
        cases = []
        for src, dst in itertools.product(small, repeat=2):
            if dst.order() ** (src.order() - 1) > 4096:
                continue
            others = [i for i in src.elements() if i != src.id_index]
            for images in itertools.product(range(dst.order()), repeat=len(others)):
                data = [dst.id_index] * src.order()
                for i, y in zip(others, images):
                    data[i] = y
                cases.append((src, dst, data))
        rng = random.Random(31)
        for dst in (dihedral_table(6), _power(cyclic_table(2), 3)):
            for src in small + [dihedral_table(6), _power(cyclic_table(2), 3)]:
                for _ in range(40):
                    data = [rng.randrange(dst.order()) for _ in src.elements()]
                    data[src.id_index] = dst.id_index
                    cases.append((src, dst, data))
                cases += [(src, dst, list(h.data)) for h in _all_homs(src, dst, limit=20)]
        homs = 0
        for src, dst, data in cases:
            first = _first_non_multiplicative(src, dst, data)
            if first is None:
                assert Hom.table(src, dst, data).data == tuple(data)
                homs += 1
                continue
            with pytest.raises(ShapeMismatch) as info:
                Hom.table(src, dst, data)
            assert str(info.value) == "not multiplicative at ({},{})".format(*first)
        assert len(cases) > 10000 and homs > 500

    def test_table_hom_range_texts(self):
        z4 = cyclic_table(4)
        for bad in (-1, 4, 1.5, "x", None):
            for at in (1, 3):
                data = [0, 1, 2, 3]
                data[at] = bad
                with pytest.raises(ShapeMismatch) as info:
                    Hom.table(z4, z4, data)
                assert str(info.value) == f"{bad!r} is not an index into a table of size 4"
        # the first offender is named
        with pytest.raises(ShapeMismatch, match=r"^7 is not an index into a table of size 4$"):
            Hom.table(z4, z4, [0, 7, -1, "x"])
        # bool is an int, as dst.check has it
        z2 = cyclic_table(2)
        assert Hom.table(z2, z2, [False, True]).data == (False, True)
        assert Hom.table(z2, z2, [0, True]).data == (0, 1)

    def test_checked_matches_the_cubic_scan(self):
        rng = random.Random(37)
        groups = [_permuted(t, rng) for t in _search_corpus()[::4] if t.order() <= 12]
        loops = [_random_magma(rng, n) for n in range(2, 7) for _ in range(40)]
        failing = 0
        for labels, rows, e in [(t.labels, t.mul_table, t.id_index) for t in groups] + loops:
            first = _first_nonassociative(rows)
            if first is None:
                table = FiniteTable(labels, rows, e)
                assert (table.mul_table, table.id_index) == (tuple(map(tuple, rows)), e)
                continue
            failing += 1
            with pytest.raises(ValueError) as info:
                FiniteTable(labels, rows, e)
            assert str(info.value) == "associativity fails at ({},{},{})".format(*first)
        assert len(groups) > 60 and failing > 140

    def test_loops_are_refused_and_the_table_services_see_groups(self):
        # seeded tables of order 3-5 with an identity row and column and
        # two-sided inverses: the constructor refuses each loop, naming the
        # cubic scan's first triple, so the cover proofs of the table
        # services hold: on the groups left, every map to Z/2 gets the full
        # scan's verdict and subgroup_table its closure.
        rng = random.Random(41)
        z2 = cyclic_table(2)
        refused = accepted = 0
        for labels, rows, e in (_random_magma(rng, n) for n in range(3, 6) for _ in range(100)):
            first = _first_nonassociative(rows)
            if first is not None:
                refused += 1
                with pytest.raises(ValueError, match=r"^associativity fails at \(%d,%d,%d\)$" % first):
                    FiniteTable(labels, rows, e)
                continue
            accepted += 1
            table = FiniteTable(labels, rows, e)
            for images in itertools.product(range(2), repeat=table.order() - 1):
                data = [0, *images]
                if _first_non_multiplicative(table, z2, data) is None:
                    assert Hom.table(table, z2, data).data == tuple(data)
                else:
                    with pytest.raises(ShapeMismatch, match="^not multiplicative at "):
                        Hom.table(table, z2, data)
            for x in table.elements():
                sub, inclusion = subgroup_table(table, [x])
                assert set(inclusion) == set(_ft_closure(table, (x,))) and sub.order() == len(inclusion)
        assert refused > 250 and accepted > 10

    def test_refused_tables_leave_no_cover_cached(self):
        # the constructor's cover stays out of _ft_cover's cache, so nothing
        # keeps a refused table alive
        rng = random.Random(25)
        before = _ft_cover.cache_info().currsize
        refused = 0
        while refused < 2000:
            labels, rows, e = _random_magma(rng, 6)
            if _first_nonassociative(rows) is not None:
                with pytest.raises(ValueError, match="^associativity fails at "):
                    FiniteTable(labels, rows, e)
                refused += 1
        assert _ft_cover.cache_info().currsize == before

    def test_subgroup_tables_equal_checked_tables(self):
        # every subgroup generated by one or two elements of the hom stock,
        # against a table the constructor checks, rows read in the test
        stock, _ = _rank_sweep_tables()
        built = 0
        for parent in stock:
            for gens in itertools.combinations_with_replacement(parent.elements(), 2):
                table, inclusion = subgroup_table(parent, gens)
                index = {x: k for k, x in enumerate(inclusion)}
                rows = [[index[parent.mul_table[x][y]] for y in inclusion] for x in inclusion]
                reference = FiniteTable([parent.labels[x] for x in inclusion], rows, 0)
                _same_fields(table, reference)
                built += 1
        assert built > 1200

    def test_products_equal_checked_tables(self):
        stock, products = _rank_sweep_tables()
        for a, b in itertools.product(stock[:6] + stock[15:], repeat=2):
            product = direct_product(a, b)
            nb = b.order()
            pairs = [(i, j) for i in a.elements() for j in b.elements()]
            rows = [[a.mul_table[i][k] * nb + b.mul_table[j][l] for k, l in pairs] for i, j in pairs]
            labels = [f"({a.labels[i]},{b.labels[j]})" for i, j in pairs]
            _same_fields(product, FiniteTable(labels, rows, a.id_index * nb + b.id_index))
        for table in products:
            _same_fields(table, FiniteTable(list(table.labels), [list(r) for r in table.mul_table],
                                            table.id_index))

    def test_rank_bound_reads_the_derived_subgroup_off_the_cover(self):
        # against the bound from all n^2 commutators; in the Heisenberg group
        # mod 3 the cover starts at the central z, whose commutators are all
        # trivial, so a derived subgroup read off z alone would be too small
        def heisenberg(a, b):  # (x, y, z) as the matrix [[1, x, z], [0, 1, y], [0, 0, 1]]
            return ((a[0] + b[0]) % 3, (a[1] + b[1]) % 3, (a[2] + b[2] + a[0] * b[1]) % 3)

        h27, _ = table_from_closure([(0, 0, 1), (1, 0, 0), (0, 1, 0)], heisenberg, (0, 0, 0),
                                    lambda x, word: str(x))
        assert _ft_cover(h27)[0] == 1 and _ft_rank_bound(h27) == 2
        rng = random.Random(43)
        tables = _search_corpus()[::2] + [h27, direct_product(h27, cyclic_table(2))]
        tables += [_permuted(h27, rng) for _ in range(4)]
        for table in tables:
            assert _ft_rank_bound(table) == _reference_rank_bound(table), table.labels

    def test_checked_on_a_large_cyclic_table_within_budget(self):
        # the cubic scan took about 5-7 s on Z/512; Light's test reads 512 rows
        n = 512
        rows = [[(i + j) % n for j in range(n)] for i in range(n)]
        _ft_cover.cache_clear()
        start = time.perf_counter()
        table = FiniteTable([f"a{i}" for i in range(n)], rows, 0)
        elapsed = time.perf_counter() - start
        assert table == cyclic_table(n)
        assert elapsed < 0.1, f"FiniteTable on Z/512 took {elapsed:.3f} s"

    def test_rank_bound_on_a_large_elementary_abelian_table_within_budget(self):
        # all n^2 commutators took about 0.12 s on (Z/2)^10; the cover's n |S| far less
        n = 1024
        table = FiniteTable(tuple(map(str, range(n))), tuple(tuple(i ^ j for j in range(n)) for i in range(n)), 0)
        _ft_cover.cache_clear()
        start = time.perf_counter()
        bound = _ft_rank_bound(table)
        elapsed = time.perf_counter() - start
        assert bound == 10
        assert elapsed < 0.05, f"_ft_rank_bound on (Z/2)^10 took {elapsed:.3f} s"


def _random_element(rng, g):
    if isinstance(g, FreeAbelian):
        return tuple(rng.randint(-4, 4) for _ in range(g.rank))
    if isinstance(g, FiniteTable):
        return rng.randrange(g.order())
    acc = ()
    for _ in range(rng.randint(0, 5) if g.rank else 0):
        acc = g.mul(acc, (rng.choice([1, -1]) * rng.randint(1, g.rank),))
    return acc


def test_hom_services_agree_on_every_zoo_edge_map():
    """Membership against the brute-force image for finite targets,
    preimages that map back, and cogenerators outside the image, over every
    zoo edge map plus image homs into finite targets."""
    rng = random.Random(41)
    z6, s3 = cyclic_table(6), dihedral_table(3)
    homs = [h for g in zoo.graphs() + zoo.edge_map_graphs() for h in g.emap.values()] + [
        Hom.images(FreeGroup(2), z6, [2, 3]),
        Hom.images(FreeGroup(2), z6, [2, 4]),
        Hom.images(FreeGroup(2), s3, [1, 3]),
        Hom.images(FreeGroup(1), s3, [4]),
        Hom.images(FreeAbelian(1), z6, [4]),
        Hom.images(FreeAbelian(0), s3, []),
    ]
    finite_checked = 0
    for h in homs:
        if isinstance(h.dst, FiniteTable):
            image = {h.dst.id_index}
            frontier = list(image)
            step = (
                list(h.data)
                if not isinstance(h.src, FiniteTable)
                else [h.apply(x) for x in h.src.elements()]
            )
            while frontier:
                y = frontier.pop()
                for z in step:
                    for w in (h.dst.mul(y, z), h.dst.mul(y, h.dst.inv(z))):
                        if w not in image:
                            image.add(w)
                            frontier.append(w)
            targets = list(h.dst.elements())
            for y in targets:
                assert hom_member(h, y).inside == (y in image)
            finite_checked += 1
        else:
            targets = [_random_element(rng, h.dst) for _ in range(20)]
            targets += [h.apply(_random_element(rng, h.src)) for _ in range(20)]
        for y in targets:
            answer = hom_member(h, y)
            if answer.inside:
                assert h.apply(answer.preimage) == y
            if isinstance(h.dst, FreeAbelian) and h.dst.rank:
                # the compiled solve answers as SmithForm.solve does
                x = h._snf.solve(list(y))
                assert answer.inside == (x is not None)
                if x is not None and isinstance(h.src, FreeAbelian):
                    assert answer.preimage == tuple(x)
        cog = cogenerator(h)
        if cog is not None:
            assert not hom_member(h, cog).inside
    assert finite_checked >= 20


HOM_DIGESTS = pathlib.Path(__file__).parent / "golden" / "hom-digests.txt"
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _outcome(build):
    """repr of what build() returns (a hom's data for a hom), or the
    error's class and text."""
    try:
        result = build()
    except (GogError, AssertionError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr(result.data if isinstance(result, Hom) else result)


def _powers(group):
    """power(x, k) for k = -6..6 over every element of a table, else over
    the identity, each generator and the product of the generators."""
    if isinstance(group, FiniteTable):
        elements = list(group.elements())
    else:
        elements = [group.identity(), *group.generators(),
                    functools.reduce(group.mul, group.generators(), group.identity())]
    return [group.power(x, k) for x in elements for k in range(-6, 7)]


def _derived_homs(h):
    """The homs derived from h: composites with both identities, its
    inverse (or the refusal), its square (mismatched middles unless an
    endomorphism), both identities and the trivial hom."""
    src, dst = h.src, h.dst
    parts = [
        _outcome(lambda: compose(h, Hom.identity(src))),
        _outcome(lambda: compose(Hom.identity(dst), h)),
        _outcome(lambda: inverse(h)),
        _outcome(lambda: compose(h, h)),
        _outcome(lambda: Hom.identity(src)),
        _outcome(lambda: Hom.identity(dst)),
        _outcome(lambda: Hom.trivial(src, dst)),
    ]
    if is_isomorphism(h):
        parts.append(_outcome(lambda: compose(inverse(h), h)))
    return parts


def hom_digest_cases():
    """(case id, parts) for every line of the hom digest file: every edge
    map of ``zoo.graphs()``, ``zoo.edge_map_graphs()`` and the fixtures,
    then cyclic, product and dihedral tables, then the refusals."""
    for name, graphs in (("graphs()", zoo.graphs()), ("edge_map_graphs()", zoo.edge_map_graphs())):
        for i, g in enumerate(graphs):
            for e in sorted(g.emap):
                h = g.emap[e]
                yield f"{name}[{i}] {e}", _derived_homs(h) + [repr(_powers(h.src)), repr(_powers(h.dst))]
    for path in sorted(FIXTURES.glob("*.gog")):
        g = parse_gog(str(path))
        for e in sorted(g.emap):
            yield f"{path.name} {e}", _derived_homs(g.emap[e])
    z2, z3, z4 = cyclic_table(2), cyclic_table(3), cyclic_table(4)
    tables = [(f"Z/{n}", cyclic_table(n)) for n in range(2, 17)]
    tables += [("Z/2xZ/2", direct_product(z2, z2)), ("Z/2xZ/3", direct_product(z2, z3)),
               ("Z/2xZ/4", direct_product(z2, z4)), ("Z/3xZ/3", direct_product(z3, z3)),
               ("(Z/2)^3", _power(z2, 3)), ("Z/2xD3", direct_product(z2, dihedral_table(3)))]
    tables += [(f"D{n}", dihedral_table(n)) for n in range(3, 9)]
    d4 = dihedral_table(4)
    for case, t in tables:
        parts = _derived_homs(Hom.identity(t)) + [repr(_powers(t))]
        if t.order() <= 8:
            for dst in (t, d4):
                for images in itertools.product(dst.elements(), repeat=len(t.generators())):
                    try:
                        h = Hom.from_generator_images(t, dst, list(images))
                    except ShapeMismatch as exc:
                        parts.append(f"ShapeMismatch: {exc}")
                        continue
                    parts.append(repr(h.data))
                    if is_isomorphism(h):
                        parts.append(repr(inverse(h).data))
        yield case, parts
    # a finite source composed into an infinite target: the constructors
    # refuse such a hom, so one is forged to reach compose's own guard
    forged = Hom.identity(z2)
    object.__setattr__(forged, "dst", FreeGroup(1))
    mismatched = [(FreeAbelian(1), FreeGroup(1)), (FreeGroup(1), FreeGroup(2)), (z2, z3)]
    yield "errors", [
        _outcome(lambda: compose(forged, Hom.identity(z2))),
        _outcome(lambda: compose(Hom.identity(z2), Hom.identity(z3))),
        _outcome(lambda: Hom.from_generator_images(z2, z2, [1, 1])),
        _outcome(lambda: Hom.images(FreeGroup(2), z2, [1])),
        *(_outcome(lambda: parse_hom("identity", src, dst, "edges.e")) for src, dst in mismatched),
        # the identity descriptor keeps its own target, so its letter names
        *(repr(hom_descriptor(parse_hom("identity", src, dst, "edges.e"))) for src, dst in [
            (FreeGroup(2, ("a", "b")), FreeGroup(2, ("c", "d"))),
            (z4, cyclic_table(4, "b")),
            (FreeAbelian(2), FreeAbelian(2, ("p", "q"))),
        ]),
    ]


def hom_digest_line(case, parts):
    return f"{case}: {hashlib.sha256(chr(10).join(parts).encode()).hexdigest()}"


def test_derived_homs_and_powers_match_their_digests():
    expected = HOM_DIGESTS.read_text().splitlines()
    got = [hom_digest_line(case, parts) for case, parts in hom_digest_cases()]
    changed = [line for line in difflib.ndiff(expected, got) if line[:2] in ("- ", "+ ")]
    assert not changed, f"derived homs differ from {HOM_DIGESTS.name}:\n" + "\n".join(changed)


class TestRanks:
    def test_trivial_group_rank_zero(self):
        assert group_rank(FreeAbelian(0)) == 0
        assert group_rank(cyclic_table(1)) == 0

    def test_elementary_abelian_rank(self):
        z2 = cyclic_table(2)
        g = direct_product(z2, direct_product(z2, z2))
        assert group_rank(g) == 3

    def test_cyclic_six_rank_one(self):
        assert group_rank(cyclic_table(6)) == 1

    def test_dihedral_rank_two(self):
        assert group_rank(dihedral_table(4)) == 2

    def test_geometric_rank_closed_forms(self):
        assert geometric_rank_class(FreeAbelian(3)) == 3
        assert geometric_rank_class(cyclic_table(8)) == 0
        assert geometric_rank_class(FreeGroup(3)) == 1
        assert geometric_rank_class(FreeGroup(0)) == 0

    def test_equal_tables_share_one_generating_set_search(self):
        # labels are not compared, so tables built apart with other labels are
        # equal, hash equal, and hit one cache entry
        mul = dihedral_table(7).mul_table
        a = FiniteTable(tuple(f"x{i}" for i in range(14)), mul, 0)
        b = FiniteTable(tuple(f"y{i}" for i in range(14)), tuple(map(list, mul)), 0)
        assert a is not b and a == b and hash(a) == hash(b)
        before = _ft_generating_set.cache_info()
        assert a.generators() == b.generators()
        after = _ft_generating_set.cache_info()
        assert after.misses - before.misses <= 1 and after.hits - before.hits >= 1

    def test_rank_monotone_under_image(self):
        # images of table homs never need more generators than the source
        stock = [cyclic_table(n) for n in (2, 3, 4, 6, 8)] + [
            direct_product(cyclic_table(2), cyclic_table(2)),
            dihedral_table(3),
        ]
        checked = 0
        for src in stock:
            for dst in stock:
                for h in _all_homs(src, dst, limit=40):
                    image, _ = subgroup_table(dst, set(h.data))
                    assert group_rank(image) <= group_rank(src)
                    checked += 1
        assert checked > 100


def _reference_generating_set(table):
    """The contract by brute force: the first subset, in
    itertools.combinations order of the non-identity indices, of the least
    size that generates; each subset's closure is a fresh search."""
    n, e = table.order(), table.id_index
    candidates = [i for i in table.elements() if i != e]
    for k in range(n):
        for subset in itertools.combinations(candidates, k):
            seen, frontier = {e}, [e]
            while frontier:
                row = table.mul_table[frontier.pop()]
                for g in subset:
                    if row[g] not in seen:
                        seen.add(row[g])
                        frontier.append(row[g])
            if len(seen) == n:
                return subset
    raise AssertionError("no subset generates")


def _permuted(table, rng):
    """An equal group on shuffled indices, identity included."""
    perm = list(table.elements())
    rng.shuffle(perm)
    pos = {x: k for k, x in enumerate(perm)}
    mul = [[pos[table.mul_table[x][y]] for y in perm] for x in perm]
    return FiniteTable(tuple(table.labels[x] for x in perm), mul, pos[table.id_index])


def _search_corpus():
    """The targets of the rank sweeps, cyclic and dihedral tables, their
    pairwise products up to order 48, seeded subgroup tables and copies on
    permuted indices."""
    z2, z3, z4 = cyclic_table(2), cyclic_table(3), cyclic_table(4)
    stock = [cyclic_table(n) for n in range(2, 17)] + [
        direct_product(z2, z2), direct_product(z4, z2), direct_product(z2, direct_product(z2, z2)),
        direct_product(z3, z3), dihedral_table(3), dihedral_table(4), dihedral_table(6),
        dihedral_table(8),
    ]
    small = [cyclic_table(n) for n in range(1, 33)] + [dihedral_table(n) for n in range(1, 13)]
    products = [direct_product(a, b) for a, b in itertools.combinations_with_replacement(small, 2)
                if a.order() * b.order() <= 48]
    rng = random.Random(13)
    subgroups = []
    for t in stock + products[::3]:
        for _ in range(2):
            picks = rng.sample(list(t.elements()), min(t.order(), rng.randint(1, 3)))
            subgroups.append(subgroup_table(t, picks)[0])
    permuted = [_permuted(t, rng) for t in stock + small + products[::2] + subgroups[::4]]
    return stock + small + products + subgroups + permuted


class TestGeneratingSetSearch:
    def test_matches_the_brute_force_reference(self):
        corpus = _search_corpus()
        assert len(corpus) > 600
        ranks = set()
        for t in corpus:
            assert _ft_generating_set.__wrapped__(t) == _reference_generating_set(t), t.labels
            ranks.add(group_rank(t))
        assert ranks == {0, 1, 2, 3, 4}

    def test_rank_bound_is_a_lower_bound_and_exact_on_abelian_and_p_groups(self):
        exact = 0
        for t in _search_corpus():
            bound, rank, n = _ft_rank_bound(t), group_rank(t), t.order()
            assert bound <= rank, t.labels
            abelian = all(row == col for row, col in zip(t.mul_table, zip(*t.mul_table)))
            p = next((p for p in range(2, n + 1) if n % p == 0), 1)
            p_group = all(q % p == 0 for q in range(2, n + 1) if n % q == 0)
            if abelian or p_group:
                assert bound == rank, t.labels
                exact += 1
        assert exact > 200
        # S3's largest elementary abelian quotient is Z/2: the bound is 1, d is 2
        assert _ft_rank_bound(dihedral_table(3)) == 1 < group_rank(dihedral_table(3))

    def test_seeded_closure_is_the_joint_closure(self):
        rng = random.Random(8)
        for t in _search_corpus()[::5]:
            for _ in range(3):
                a = tuple(rng.sample(list(t.elements()), min(t.order(), 2)))
                b = tuple(rng.sample(list(t.elements()), min(t.order(), 2)))
                seed = _ft_closure(t, a)
                grown = _ft_closure(t, b, seed)
                assert grown[: len(seed)] == seed
                assert len(set(grown)) == len(grown)
                assert set(grown) == set(_ft_closure(t, a + b))
        assert _ft_closure(cyclic_table(6), (2,)) == (0, 2, 4)

    @pytest.mark.parametrize("build, rank", [
        (lambda: _power(cyclic_table(2), 8), 8),
        (lambda: direct_product(dihedral_table(4), _power(cyclic_table(2), 3)), 5),
    ], ids=["Z2^8", "D4xZ2^3"])
    def test_cliff_tables_within_budget(self, build, rank):
        # trying every smaller subset first never finishes on (Z/2)^8; on
        # D4 x (Z/2)^3 the bound, 5, lets the search skip sizes 2 to 4
        table = build()
        _ft_generating_set.cache_clear()
        start = time.perf_counter()
        assert group_rank(table) == rank
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"group_rank took {elapsed:.2f} s"

    def test_product_rank_family_within_budget(self):
        _ft_generating_set.cache_clear()
        start = time.perf_counter()
        g = product_rank_family(4, cyclic_table(4))
        elapsed = time.perf_counter() - start
        assert group_rank(g) == 5
        assert elapsed < 1.0, f"product_rank_family took {elapsed:.2f} s"


def _power(table, k):
    result = table
    for _ in range(k - 1):
        result = direct_product(result, table)
    return result


def _all_homs(src, dst, limit):
    gens = src.generators()
    found = []
    for images in itertools.product(range(dst.order()), repeat=len(gens)):
        try:
            found.append(Hom.from_generator_images(src, dst, list(images)))
        except ShapeMismatch:
            continue
        if len(found) >= limit:
            break
    return found


class TestElementText:
    def test_roundtrip(self):
        za = FreeAbelian(2, ("a", "b"))
        assert parse_element(za, format_element(za, (3, -1))) == (3, -1)
        z6 = cyclic_table(6)
        assert parse_element(z6, format_element(z6, 4)) == 4
        assert parse_element(z6, "a4") == 4
        f2 = FreeGroup(2, ("a", "b"))
        assert parse_element(f2, format_element(f2, (1, -2, 1))) == (1, -2, 1)
        assert parse_element(f2, "1") == ()
        assert format_element(f2, ()) == "1"


class TestNielsenInverse:
    def test_free_inverse_of_nielsen_map(self):
        f2 = FreeGroup(2, ("a", "b"))
        h = Hom.images(f2, f2, [(1, 2), (2,)])  # a -> ab, b -> b
        assert is_isomorphism(h)
        hinv = inverse(h)
        assert hom_apply(hinv, (1,)) == (1, -2)  # a -> ab^-1
        assert hom_apply(hinv, (2,)) == (2,)
        for w in [(1,), (2,), (1, 2, -1), (-2, 1, 1)]:
            assert hom_apply(hinv, hom_apply(h, w)) == w
            assert hom_apply(h, hom_apply(hinv, w)) == w


# -- the spell contract, as a property -----------------------------------------

# derandomized: every run draws the same examples
SPELL_SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)

TABLE_FACTORS = [("Z", n, n) for n in range(1, 65)] + [("D", n, 2 * n) for n in range(1, 33)]


@functools.lru_cache(maxsize=None)
def factor_table(kind, n):
    return cyclic_table(n) if kind == "Z" else dihedral_table(n)


@st.composite
def table_elements(draw):
    """A cyclic, dihedral or product table of order <= 64, and one element."""
    kind, n, order = draw(st.sampled_from(TABLE_FACTORS))
    table = factor_table(kind, n)
    if draw(st.booleans()):
        other = draw(st.sampled_from([f for f in TABLE_FACTORS if f[2] * order <= 64]))
        table = direct_product(table, factor_table(*other[:2]))
    return table, draw(st.integers(0, table.order() - 1))


@st.composite
def free_abelian_elements(draw):
    rank = draw(st.integers(0, 4))
    return FreeAbelian(rank), tuple(draw(st.lists(st.integers(-9, 9), min_size=rank, max_size=rank)))


@st.composite
def free_group_elements(draw):
    rank = draw(st.integers(0, 3))
    letters = [s for i in range(1, rank + 1) for s in (i, -i)]
    word = draw(st.lists(st.sampled_from(letters), max_size=30)) if letters else []
    return FreeGroup(rank), free_reduce(word)


class TestSpellContract:
    """``spell(x)`` is a reduced free word over ``generators()`` (+i the
    i-th generator, -i its inverse) whose product is x."""

    @staticmethod
    def check_spelling(group, x):
        word = group.spell(x)
        d = len(group.generators())
        assert all(isinstance(s, int) and 1 <= abs(s) <= d for s in word), word
        assert free_reduce(word) == word
        acc = group.identity()
        for s in word:
            gen = group.generators()[abs(s) - 1]
            acc = group.mul(acc, gen if s > 0 else group.inv(gen))
        assert acc == x

    @SPELL_SETTINGS
    @given(free_abelian_elements())
    def test_free_abelian(self, drawn):
        self.check_spelling(*drawn)

    @SPELL_SETTINGS
    @given(free_group_elements())
    def test_free_group_spells_itself(self, drawn):
        group, x = drawn
        assert group.spell(x) == x
        self.check_spelling(group, x)

    @SPELL_SETTINGS
    @given(table_elements())
    def test_finite_tables(self, drawn):
        self.check_spelling(*drawn)


@pytest.mark.parametrize("build, error, text", [
    (lambda: FreeAbelian(-1), ValueError, "negative rank"),
    (lambda: FreeAbelian(2, ("a",)), ValueError, "name count != rank"),
    (lambda: cyclic_table(0), ValueError, "order must be positive"),
    (lambda: dihedral_table(0), ValueError, "n must be positive"),
    (lambda: direct_product(cyclic_table(64), cyclic_table(65)), ValueError,
     "product order 4160 exceeds cap 4096"),
    # the integers under + close nowhere: refused at the cap, not built
    (lambda: table_from_closure([1], lambda x, y: x + y, 0, lambda x, w: str(x)), ValueError,
     "closure exceeds cap 4096"),
    (lambda: parse_element(FreeAbelian(1), "1"), ShapeMismatch,
     "free abelian element must look like [k1,...]: '1'"),
    (lambda: parse_element(cyclic_table(2), "b"), ShapeMismatch, "unknown table element 'b'"),
    (lambda: parse_element(FreeGroup(1, ("x",)), "x y"), ShapeMismatch, "unknown free-group letter 'y'"),
])
def test_constructor_and_parse_texts(build, error, text):
    with pytest.raises(error, match="^" + re.escape(text) + "$"):
        build()
