import itertools
import random
import re

import pytest

from gogroups.errors import CapExceeded, UnknownLetter
from gogroups.gog import Letter, Presentation
from gogroups.quotients import (
    InvariantFactors,
    QuotientOracle,
    abelianization,
    coset_enumeration,
    exponent_matrix,
    mat_det,
    mat_identity,
    mat_mul,
    oracle_answer,
    smith_normal_form,
    snf_solve,
    solve_int,
    word_exponent_vector,
)


def pres(names, relators):
    gens = tuple(Letter(n, "vertex", "v", i) for i, n in enumerate(names))
    return Presentation(gens, tuple(tuple(r) for r in relators))


def diag_of(d):
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


class TestSmithNormalForm:
    def test_identity(self):
        u, d, v = smith_normal_form(mat_identity(2))
        assert d == mat_identity(2)

    def test_diag_2_3(self):
        m = [[2, 0], [0, 3]]
        u, d, v = smith_normal_form(m)
        assert diag_of(d) == [1, 6]
        assert mat_mul(mat_mul(u, m), v) == d

    def test_doubling_map(self):
        # the index-2 sublattice: cokernel Z/2
        _, d, _ = smith_normal_form([[2]])
        assert d == [[2]]

    def test_zero_and_empty(self):
        _, d, _ = smith_normal_form([[0, 0], [0, 0]])
        assert d == [[0, 0], [0, 0]]
        u, d, v = smith_normal_form([])
        assert (u, d, v) == ([], [], [])

    def test_random_sweep(self):
        rng = random.Random(2024)
        for _ in range(150):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            u, d, v = smith_normal_form(m)
            assert mat_mul(mat_mul(u, m), v) == d
            assert abs(mat_det(u)) == 1 and abs(mat_det(v)) == 1
            diag = diag_of(d)
            for i in range(len(diag) - 1):
                if diag[i]:
                    assert diag[i + 1] % diag[i] == 0

    def test_solve(self):
        assert solve_int([[2]], [4]) == [2]
        assert solve_int([[2]], [3]) is None
        assert solve_int([[1, 1]], [5]) is not None
        x = solve_int([[2, 0], [0, 3]], [4, -9])
        assert x == [2, -3]
        # a kept SNF answers the same; a zero-column matrix solves only 0
        m = [[2, 4, 0], [1, 1, 3]]
        for y in ([2, 1], [6, 5], [1, 0], [0, 0]):
            assert snf_solve(smith_normal_form(m), y) == solve_int(m, y)
        assert snf_solve(smith_normal_form([[], []]), [0, 0]) == []
        assert snf_solve(smith_normal_form([[], []]), [0, 1]) is None


class TestAbelianization:
    def test_free_letter(self):
        assert abelianization(pres(["t"], [])) == InvariantFactors((), 1)

    def test_trefoil_relator(self):
        # x^2 y^-3: SNF of [2 -3] is [1]
        p = pres(["x", "y"], [[("x", 1), ("x", 1), ("y", -1), ("y", -1), ("y", -1)]])
        assert abelianization(p) == InvariantFactors((), 1)

    def test_torus_hnn(self):
        p = pres(["a", "t"], [[("t", 1), ("a", 1), ("t", -1), ("a", -1)]])
        assert abelianization(p) == InvariantFactors((), 2)

    def test_z2_star_z3_killed_tree_letter(self):
        p = pres(
            ["a", "b", "t"],
            [
                [("a", 1), ("a", 1)],
                [("b", 1)] * 3,
                [("t", 1)],
            ],
        )
        assert abelianization(p) == InvariantFactors((6,), 0)

    def test_invariance_under_tietze_noise(self):
        rng = random.Random(99)
        base = pres(
            ["a", "b", "c"],
            [
                [("a", 1)] * 4,
                [("b", 1)] * 6,
                [("a", 1), ("b", -1), ("c", 1)],
            ],
        )
        expected = abelianization(base)
        for _ in range(40):
            relators = []
            for rel in base.relators:
                rel = list(rel)
                if rng.random() < 0.5:
                    rel = [(n, -s) for n, s in reversed(rel)]  # invert
                if rng.random() < 0.5:
                    k = rng.randrange(len(rel))
                    rel = rel[k:] + rel[:k]  # cyclic rotation = conjugation
                relators.append(tuple(rel))
            rng.shuffle(relators)
            noisy = Presentation(base.generators, tuple(relators))
            assert abelianization(noisy) == expected


class TestCosetEnumeration:
    def test_cyclic_four(self):
        p = pres(["a"], [[("a", 1)] * 4])
        table = coset_enumeration(p, 100)
        assert table.completed and table.order == 4
        assert table.replay_check(p)

    def test_pushout_order_six(self):
        # <a, b | a^4, b^6, a b^-3> collapses to <b | b^6>
        p = pres(
            ["a", "b"],
            [
                [("a", 1)] * 4,
                [("b", 1)] * 6,
                [("a", 1), ("b", -1), ("b", -1), ("b", -1)],
            ],
        )
        table = coset_enumeration(p, 1000)
        assert table.order == 6
        # independent route: the abelianization is already Z/6
        assert abelianization(p) == InvariantFactors((6,), 0)

    def test_infinite_group_hits_cap(self):
        with pytest.raises(CapExceeded):
            coset_enumeration(pres(["t"], []), 100)
        with pytest.raises(CapExceeded):
            # Z via a redundant relator still cannot close
            coset_enumeration(pres(["t", "u"], [[("t", 1), ("u", -1)]]), 100)

    def test_trivial_presentation(self):
        p = pres(["a"], [[("a", 1)]])
        table = coset_enumeration(p, 10)
        assert table.order == 1

    def test_action_and_dump(self):
        p = pres(["a"], [[("a", 1)] * 3])
        table = coset_enumeration(p, 50)
        c = table.action(0, [("a", 1), ("a", 1)])
        assert table.action(c, [("a", 1)]) == 0
        dump = table.dump()
        assert dump.splitlines()[0] == "cosets=3 completed=true"
        assert len(dump.splitlines()) == 4

    def test_action_rejects_unknown_letters_on_every_call(self):
        p = pres(["a", "b"], [[("a", 1)] * 2, [("b", 1)] * 3, [("a", 1), ("b", -1)] * 2])
        table = coset_enumeration(p, 100)
        assert table.action(0, [("a", -1)]) == table.action(0, [("a", 1)])
        assert table.action(0, [("b", -1)]) == table.action(0, [("b", 1), ("b", 1)])
        for _ in range(2):
            with pytest.raises(UnknownLetter, match="'c' is not a generator"):
                table.action(0, [("a", 1), ("c", 1)])
        with pytest.raises(UnknownLetter, match=re.escape("['a'] is not a generator")):
            table.action(0, [(["a"], 1)])

    def test_klein_four(self):
        p = pres(
            ["a", "b"],
            [
                [("a", 1)] * 2,
                [("b", 1)] * 2,
                [("a", 1), ("b", 1), ("a", -1), ("b", -1)],
            ],
        )
        table = coset_enumeration(p, 100)
        assert table.order == 4


class TestOracles:
    def test_abelianization_oracle_on_commutator(self):
        p = pres(["a", "b"], [[("a", 1)] * 2])
        ans = oracle_answer(
            QuotientOracle.abelianization(),
            p,
            [("a", 1), ("b", 1), ("a", -1), ("b", -1)],
        )
        assert ans.trivial and not ans.exact
        assert "abelian" in ans.soundness

    def test_enumeration_oracle(self):
        p = pres(
            ["a", "b"],
            [
                [("a", 1)] * 4,
                [("b", 1)] * 6,
                [("a", 1), ("b", -1), ("b", -1), ("b", -1)],
            ],
        )
        word = [("a", 1), ("b", -1), ("b", -1), ("b", -1)]
        ans = oracle_answer(QuotientOracle.finite_enumeration(1000), p, word)
        assert ans.trivial and ans.exact
        ans2 = oracle_answer(QuotientOracle.finite_enumeration(1000), p, [("b", 1)])
        assert not ans2.trivial

    def test_free_reduction_oracle(self):
        p = pres(["t"], [])
        ans = oracle_answer(QuotientOracle.free_reduction(), p, [("t", 1), ("t", -1)])
        assert ans.trivial and ans.exact
        ans2 = oracle_answer(QuotientOracle.free_reduction(), p, [("t", 1)])
        assert not ans2.trivial

    def test_unknown_and_unhashable_letters_are_unknown_everywhere(self):
        p = pres(["a", "b"], [[("a", 1)] * 2, [("b", 1)] * 3])
        for bad in ("c", ["a"]):
            word = [("a", 1), (bad, 1)]
            with_relator = Presentation(p.generators, p.relators + (tuple(word),))
            calls = [
                lambda: word_exponent_vector(p, word),
                lambda: exponent_matrix(with_relator),
                lambda: coset_enumeration(with_relator, 100),
                lambda: oracle_answer(QuotientOracle.abelianization(), p, word),
                lambda: oracle_answer(QuotientOracle.finite_enumeration(100), p, word),
                lambda: oracle_answer(QuotientOracle.free_reduction(), p, word),
            ]
            for call in calls:
                with pytest.raises(UnknownLetter, match=re.escape(f"{bad!r} is not a")):
                    call()


def leibniz_det(m):
    """Determinant as the signed sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        pairs = itertools.combinations(range(len(m)), 2)
        inversions = sum(1 for i, j in pairs if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


class TestMatrixHelpers:
    def test_det_against_leibniz(self):
        rng = random.Random(5)
        seen_zero = 0
        for _ in range(400):
            n = rng.randint(0, 5)
            m = [
                [rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(n)]
                for _ in range(n)
            ]
            if n >= 2 and rng.random() < 0.25:
                m[-1] = [2 * x for x in m[0]]  # a singular matrix
            seen_zero += leibniz_det(m) == 0
            assert mat_det(m) == leibniz_det(m), m
        assert seen_zero > 50
        # zero leading entries force a row swap
        assert mat_det([[0, 1], [1, 0]]) == -1
        swapped = [[0, 2, 1], [0, 0, 3], [5, 1, 1]]
        assert mat_det(swapped) == leibniz_det(swapped) == 30
        assert mat_det([]) == 1

    def test_int_inverse_of_unimodular(self):
        from gogroups.quotients import mat_int_inverse

        m = [[1, 2], [0, 1]]
        assert mat_int_inverse(m) == [[1, -2], [0, 1]]
        with pytest.raises(ValueError):
            mat_int_inverse([[2, 0], [0, 1]])

    def test_int_kernel(self):
        from gogroups.quotients import int_kernel, mat_vec

        basis = int_kernel([[1, 1, 0], [0, 0, 1]])
        assert len(basis) == 1
        assert mat_vec([[1, 1, 0], [0, 0, 1]], basis[0]) == [0, 0]
        assert int_kernel([[2, 0], [0, 3]]) == []

    def test_invariant_factors_validation(self):
        with pytest.raises(ValueError):
            InvariantFactors((1,), 0)
        with pytest.raises(ValueError):
            InvariantFactors((4, 6), 0)  # 4 does not divide 6
        assert str(InvariantFactors((2, 6), 1)) == "Z/2 x Z/6 x Z"
        assert str(InvariantFactors((), 0)) == "trivial"

    def test_oracle_validation(self):
        with pytest.raises(ValueError):
            QuotientOracle("bogus")
        with pytest.raises(ValueError):
            QuotientOracle.finite_enumeration(0)
