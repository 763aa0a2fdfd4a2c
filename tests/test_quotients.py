import difflib
import functools
import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import zoo
import gogroups
from gogroups import quotients
from gogroups.cli import main
from zoo import one_vertex
from gogroups.errors import CapExceeded, OracleIncomplete, UnknownLetter
from gogroups.gog import Letter, Presentation, pi1_presentation
from gogroups.gogfile import parse_gog, serialize_gog
from gogroups.groups import cyclic_table, dihedral_table, direct_product
from gogroups.quotients import (
    CosetTable,
    InvariantFactors,
    QuotientOracle,
    SmithForm,
    abelianization,
    coset_enumeration,
    exponent_matrix,
    mat_identity,
    mat_vec,
    oracle_answer,
    word_exponent_vector,
)


def pres(names, relators):
    gens = tuple(Letter(n, "vertex", "v", i) for i, n in enumerate(names))
    return Presentation(gens, tuple(tuple(r) for r in relators))


def mat_mul(a, b):
    cols = len(b[0]) if b else 0
    return [[sum(ra[k] * b[k][j] for k in range(len(b))) for j in range(cols)] for ra in a]


def mat_det(a):
    """Determinant by Bareiss fraction-free elimination: every division
    is exact, so all arithmetic stays in the integers."""
    n = len(a)
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for i in range(n):
        pivot = next((r for r in range(i, n) if m[r][i] != 0), None)
        if pivot is None:
            return 0
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * prev


def dense_d(form):
    """The rows x cols matrix D of a Smith form."""
    return [
        [form.diagonal[i] if i == j else 0 for j in range(form.cols)] for i in range(form.rows)
    ]


class TestSmithNormalForm:
    def test_identity(self):
        assert SmithForm(mat_identity(2)).diagonal == (1, 1)

    def test_diag_2_3(self):
        m = [[2, 0], [0, 3]]
        f = SmithForm(m)
        assert f.diagonal == (1, 6)
        assert mat_mul(mat_mul(f.u, m), f.v) == dense_d(f)

    def test_doubling_map(self):
        # the index-2 sublattice: cokernel Z/2
        f = SmithForm([[2]])
        assert f.diagonal == (2,) and f.cokernel() == [(2, (1,))]

    def test_zero_and_empty(self):
        f = SmithForm([[0, 0], [0, 0]])
        assert f.diagonal == (0, 0) and f.ops == ()
        f = SmithForm([])
        assert (f.u, f.diagonal, f.v, f.u_inv, f.kernel()) == ([], (), [], [], [])

    def test_random_sweep(self):
        rng = random.Random(2024)
        for _ in range(150):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            f = SmithForm(m)
            assert mat_mul(mat_mul(f.u, m), f.v) == dense_d(f)
            assert abs(mat_det(f.u)) == 1 and abs(mat_det(f.v)) == 1
            assert mat_mul(f.u_inv, f.u) == mat_identity(rows)
            diag = f.diagonal
            for i in range(len(diag) - 1):
                if diag[i]:
                    assert diag[i + 1] % diag[i] == 0

    def test_solve(self):
        assert SmithForm([[2]]).solve([4]) == [2]
        assert SmithForm([[2]]).solve([3]) is None
        assert SmithForm([[1, 1]]).solve([5]) is not None
        assert SmithForm([[2, 0], [0, 3]]).solve([4, -9]) == [2, -3]
        m = [[2, 4, 0], [1, 1, 3]]
        f = SmithForm(m)
        for y in ([2, 1], [6, 5], [0, 0]):
            assert mat_vec(m, f.solve(y)) == y
        assert f.solve([1, 0]) is None
        with pytest.raises(ValueError):
            f.solve([1])
        # a zero-column matrix solves only 0
        assert SmithForm([[], []]).solve([0, 0]) == []
        assert SmithForm([[], []]).solve([0, 1]) is None
        assert SmithForm([[], []]).solver()((0, 0)) == ()
        assert SmithForm([[], []]).solver()((0, 1)) is None

    def test_scaled_and_leading_rows_of_v(self):
        # solve = V @ scaled(y); v_rows(k) replays V's first k rows alone;
        # the compiled solver gives solve's solution as a tuple
        rng = random.Random(2026)
        for _ in range(100):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            f = SmithForm(m)
            solver = f.solver()
            assert [f.v_rows(k) for k in range(cols + 1)] == [f.v[:k] for k in range(cols + 1)]
            for y in (mat_vec(m, [rng.randint(-3, 3) for _ in range(cols)]),
                      [rng.randint(-5, 5) for _ in range(rows)]):
                z = f.scaled(y)
                assert (z is None) == (f.solve(y) is None)
                assert solver(tuple(y)) == (None if z is None else tuple(f.solve(y)))
                if z is not None:
                    assert mat_vec(dense_d(f), z) == mat_vec(f.u, y)
                    assert mat_vec(f.v, z) == f.solve(y)

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        rng = random.Random(31)
        shapes = [(0, 0), (1, 0), (3, 0)] + [
            (rng.randint(1, 6), rng.randint(1, 6)) for _ in range(200)
        ]
        for rows, cols in shapes:
            density = rng.choice([0.3, 0.7, 1.0])
            m = [
                [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            f = SmithForm(m)
            flat = [x for row in m for x in row]
            theirs = smith_normal_form(sympy.Matrix(rows, cols, flat), domain=sympy.ZZ)
            assert f.diagonal == tuple(abs(int(theirs[i, i])) for i in range(min(rows, cols))), m
            assert mat_mul(f.u_inv, f.u) == mat_identity(rows)
            kernel = f.kernel()
            assert len(kernel) == cols - sum(1 for d in f.diagonal if d)
            for x in kernel:
                assert mat_vec(m, x) == [0] * rows
            x = [rng.randint(-3, 3) for _ in range(cols)]
            for y in (mat_vec(m, x), [rng.randint(-5, 5) for _ in range(rows)]):
                solution = f.solve(y)
                assert solution is None or mat_vec(m, solution) == y
            assert f.solve(mat_vec(m, x)) is not None

    def test_certificate_runs_under_optimize(self):
        # the certificate is explicit raises, so python -O keeps it
        script = """
from gogroups.quotients import SmithForm, _certify
assert False, "asserts must be off"
def rejects(m, ops, d):
    try:
        _certify(m, ops, d)
    except AssertionError:
        return True
    return False
m = [[2, 4], [6, 8]]
f = SmithForm(m)
d = [[f.diagonal[0], 0], [0, f.diagonal[1]]]
_certify(m, f.ops, d)
# each prefix would replay without changing m, so only the elementary check rejects it
for bad in [[("row", "add", 0, 0, 0)], [("row", "add", 0, 1, 0.0)],
            [("row", "neg", -1), ("row", "neg", 1)],
            [("col", "swap", 0, 1, 1), ("col", "swap", 0, 1)], [("side", "neg", 0)] * 2]:
    if not rejects(m, tuple(bad) + f.ops, d):
        raise SystemExit(f"accepted {bad!r}")
# each of these fails exactly one check: the replay, diagonality, the chain, the sign
for m, ops, d in [(m, (), d), ([[1, 1], [0, 1]], (), [[1, 1], [0, 1]]),
                  ([[2, 0], [0, 3]], (), [[2, 0], [0, 3]]), ([[-1]], (), [[-1]])]:
    if not rejects(m, ops, d):
        raise SystemExit(f"accepted {(m, ops, d)!r}")
# a completed coset table that fails its replay is refused, not returned
from gogroups import quotients
from gogroups.gog import Letter, Presentation
quotients.CosetTable.replay_check = lambda self: False
z2 = Presentation((Letter("a", "vertex", "v", 0),), ((("a", 1), ("a", 1)),))
try:
    quotients.coset_enumeration(z2, 10)
except AssertionError as exc:
    if "failed replay" not in str(exc):
        raise
else:
    raise SystemExit("a table that failed replay was returned")
"""
        src = Path(gogroups.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stdout + done.stderr


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

    def test_exponent_rows_are_copied_per_relator(self, monkeypatch):
        p = pi1_presentation(one_vertex(dihedral_table(6)))
        counted = []
        real = gogroups.folding.free_exponents
        for module in (gogroups.gog, quotients):
            monkeypatch.setattr(module, "free_exponents", lambda w, n: counted.append(w) or real(w, n))
        rows = p._exponent_rows
        m = exponent_matrix(p)
        # both read one row per relator object
        assert len(counted) == len({id(rel) for rel in p.relators}) < len(p.relators)
        assert rows and m == [word_exponent_vector(p, rel) for rel in p.relators]
        assert len(set(map(tuple, m))) < len({id(row) for row in m}) == len(m)

    def test_one_vertex_z256_builds_and_abelianizes_in_budget(self):
        # 16,384 product relators of 2 distinct words; each word's row is computed once
        start = time.perf_counter()
        result = abelianization(pi1_presentation(one_vertex(cyclic_table(256, "g"))))
        elapsed = time.perf_counter() - start
        assert result == InvariantFactors((256,), 0)
        assert elapsed < 2.5, elapsed


# (graph, cosets_defined, first 16 hex digits of sha256(dump())), computed
# before enumeration scanned each distinct relator once
ENUMERATION_DIGESTS = [
    (zoo.pushout46, 46, "04a433c816a99f15"),
    (zoo.finite_star, 66, "74899c4989e03333"),
    (zoo.chain48, 59, "e20fd68056604b7c"),
    (zoo.chain39, 67, "d7e990b7f9454311"),
    (zoo.k4_leaf, 16, "fc9ed32b9d01bc81"),
    (zoo.klein4_star, 28, "33e2583114f720c1"),
    (lambda: one_vertex(cyclic_table(24, "g")), 24, "fd2cc84f9bb6f725"),
    (lambda: one_vertex(cyclic_table(48, "g")), 48, "7d2fed5b3f1c55b2"),
    (lambda: one_vertex(cyclic_table(96, "g")), 96, "1100a7beb00f72b8"),
    (lambda: one_vertex(dihedral_table(6)), 12, "a073b68447a03e10"),
]


class TestCosetEnumeration:
    @pytest.mark.parametrize("build, defined, digest", ENUMERATION_DIGESTS)
    def test_enumeration_digests_are_pinned(self, build, defined, digest):
        table = coset_enumeration(pi1_presentation(build()), 1000)
        assert table.cosets_defined == defined
        assert hashlib.sha256(table.dump().encode()).hexdigest()[:16] == digest

    def test_relator_copies_are_scanned_once(self):
        # a table adds one product relator per pair of elements; on Z/192 the
        # 9,216 that do not freely cancel are all g^192 or g^-192
        p = pi1_presentation(one_vertex(cyclic_table(192, "g")))
        assert (len(p.relators), len(p.relator_codes)) == (9216, 2)
        start = time.perf_counter()
        table = coset_enumeration(p, 1000)
        elapsed = time.perf_counter() - start
        assert (table.order, table.cosets_defined) == (192, 192)
        assert elapsed < 2, elapsed
        z96 = pi1_presentation(one_vertex(cyclic_table(96, "g")))
        oracle = QuotientOracle.finite_enumeration(1000)
        start = time.perf_counter()
        answers = [oracle_answer(oracle, z96, [("g", 1)] * k).trivial for k in (96, 48, 1)]
        elapsed = time.perf_counter() - start
        assert answers == [True, False, False]
        assert elapsed < 2, elapsed

    def test_cyclic_four(self):
        p = pres(["a"], [[("a", 1)] * 4])
        table = coset_enumeration(p, 100)
        assert table.completed and table.order == 4
        assert table.replay_check()

    def test_a_live_coset_left_open_by_every_relator_is_filled(self):
        # <a, b | a^3, a b^-1>: no relator scan defines coset 0's b^-1
        # entry, so the row fill after the scans defines it
        p = pres(["a", "b"], [[("a", 1)] * 3, [("a", 1), ("b", -1)]])
        table = coset_enumeration(p, 100)
        assert (table.order, table.cosets_defined) == (3, 4)
        assert table.table == [[1, 2, 1, 2], [2, 0, 2, 0], [0, 1, 0, 1]]
        assert table.replay_check()

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
            with pytest.raises(UnknownLetter, match="'c' is not a presentation generator"):
                table.action(0, [("a", 1), ("c", 1)])
        with pytest.raises(UnknownLetter, match=re.escape("['a'] is not a presentation generator")):
            table.action(0, [(["a"], 1)])

    def test_replay_rejects_non_bijections_and_unsatisfied_relators(self):
        z4 = pres(["a"], [[("a", 1)] * 4])
        shift = [[(c + 1) % 4, (c - 1) % 4] for c in range(4)]
        assert CosetTable(z4, shift, True, 4).replay_check()
        # a column that is not a bijection
        collapsed = [row[:] for row in shift]
        collapsed[0][0] = 2
        assert not CosetTable(z4, collapsed, True, 4).replay_check()
        # a bijective Z/4 table against a relator it does not satisfy
        assert not CosetTable(pres(["a"], [[("a", 1)] * 2]), shift, True, 4).replay_check()

    def test_an_incomplete_table_neither_acts_nor_replays(self):
        # Z/4 half built: coset 1 has no image under a yet
        partial = CosetTable(pres(["a"], [[("a", 1)] * 4]), [[1, None], [None, 0]], False)
        assert partial.action(0, [("a", 1)]) == 1
        with pytest.raises(OracleIncomplete, match="not closed under the word"):
            partial.action(0, [("a", 1), ("a", 1)])
        assert not partial.replay_check()

    def test_permutation_is_the_action_on_every_coset(self):
        p = pres(["a", "b"], [[("a", 1)] * 2, [("b", 1)] * 3, [("a", 1), ("b", 1)] * 2])
        table = coset_enumeration(p, 100)
        words = [(), (("a", 1),), (("b", -1),), (("a", 1), ("b", 1), ("b", 1), ("a", -1))]
        for word in words:
            assert table.permutation(word) == tuple(
                table.action(c, word) for c in range(table.order)
            )
        for i, name in enumerate(["a", "b"]):
            assert table.permutation(((name, 1),)) == tuple(row[2 * i] for row in table.table)
        with pytest.raises(OracleIncomplete):
            CosetTable(p, [[None] * 4], False).permutation((("a", 1),))

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

    def test_enumeration_oracle_encodes_its_word_once(self, monkeypatch):
        # oracle_answer walks the table with the codes it encoded at entry;
        # the relators are encoded by the enumeration, each on its own
        p = pres(["a", "b"], [[("a", 1)] * 2, [("b", 1)] * 3, [("a", 1), ("b", 1)] * 3])
        word = [("a", 1), ("b", 1), ("a", 1), ("b", -1)]
        trivial = coset_enumeration(p, 100).action(0, word) == 0
        encode, seen = Presentation.encode, []

        def spy(self, w):
            seen.append(w)
            return encode(self, w)

        monkeypatch.setattr(Presentation, "encode", spy)
        assert oracle_answer(QuotientOracle.finite_enumeration(100), p, word).trivial == trivial
        assert sum(w is word for w in seen) == 1

    def test_free_reduction_oracle(self):
        p = pres(["t"], [])
        ans = oracle_answer(QuotientOracle.free_reduction(), p, [("t", 1), ("t", -1)])
        assert ans.trivial and ans.exact
        ans2 = oracle_answer(QuotientOracle.free_reduction(), p, [("t", 1)])
        assert not ans2.trivial

    def test_unknown_and_unhashable_letters_are_unknown_everywhere(self):
        p = pres(["a", "b"], [[("a", 1)] * 2, [("b", 1)] * 3, [("a", 1), ("b", 1)] * 3])
        table = coset_enumeration(p, 100)
        faults = [
            (("c", 1), "'c' is not a presentation generator"),
            ((["a"], 1), "['a'] is not a presentation generator"),
            (("c", 2), "'c' is not a presentation generator"),
            (("a", 0), "('a', 0): a letter's sign must be 1 or -1"),
            (("a", 2), "('a', 2): a letter's sign must be 1 or -1"),
        ]
        for bad, message in faults:
            word = [("a", 1), bad]
            with_relator = Presentation(p.generators, p.relators + (tuple(word),))
            calls = [
                lambda: word_exponent_vector(p, word),
                lambda: exponent_matrix(with_relator),
                lambda: coset_enumeration(with_relator, 100),
                lambda: table.action(0, word),
                lambda: table.permutation(word),
                lambda: oracle_answer(QuotientOracle.abelianization(), p, word),
                lambda: oracle_answer(QuotientOracle.finite_enumeration(100), p, word),
                lambda: oracle_answer(QuotientOracle.free_reduction(), p, word),
            ]
            for call in calls:
                with pytest.raises(UnknownLetter, match=re.escape(message)):
                    call()

    def test_non_letters_and_one_shot_words_are_unknown_letters(self):
        # a token that is no (name, sign) pair, and a miss in a word given as
        # a one-shot iterator, raise the texts letter expansion raises
        p = pi1_presentation(zoo.torus())
        faults = [
            (lambda: ["t"], "'t' is not a (name, sign) letter"),
            (lambda: [("a", 1, 3)], "('a', 1, 3) is not a (name, sign) letter"),
            (lambda: iter([("zz", 1)]), "'zz' is not a presentation generator"),
            (lambda: iter([("t", 1), ("t", 2)]), "('t', 2): a letter's sign must be 1 or -1"),
        ]
        oracles = [QuotientOracle.abelianization(), QuotientOracle.finite_enumeration(100),
                   QuotientOracle.free_reduction()]
        for word, message in faults:
            calls = [lambda: p.encode(word())]
            calls += [lambda oracle=oracle: oracle_answer(oracle, p, word()) for oracle in oracles]
            for call in calls:
                with pytest.raises(UnknownLetter) as info:
                    call()
                assert str(info.value) == message
        assert p.encode(iter([("t", 1), ("a", -1)])) == p.encode([("t", 1), ("a", -1)])


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
        # U m V = I, so m^-1 = V U; a non-unimodular matrix has a diagonal
        # entry other than 1
        f = SmithForm([[1, 2], [0, 1]])
        assert f.diagonal == (1, 1) and mat_mul(f.v, f.u) == [[1, -2], [0, 1]]
        assert SmithForm([[2, 0], [0, 1]]).diagonal == (1, 2)

    def test_int_kernel(self):
        basis = SmithForm([[1, 1, 0], [0, 0, 1]]).kernel()
        assert len(basis) == 1
        assert mat_vec([[1, 1, 0], [0, 0, 1]], basis[0]) == [0, 0]
        assert SmithForm([[2, 0], [0, 3]]).kernel() == []

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


# ---------------------------------------------------------------------------
# pinned readers of a presentation

PRESENTATION_DIGESTS = Path(__file__).parent / "golden" / "presentation-digests.txt"
FIXTURES = Path(__file__).parent / "fixtures"


def presentation_cases():
    """(case id, presentation) for every line of the presentation digest
    file: the fixtures, the zoo, seeded random graphs (seeds 1-30 of each
    family) and one-vertex cyclic, elementary abelian 2-group and dihedral
    tables."""
    for path in sorted(FIXTURES.glob("*.gog")):
        yield path.name, pi1_presentation(parse_gog(str(path)))
    for i, g in enumerate(zoo.graphs()):
        yield f"graphs()[{i}]", pi1_presentation(g)
    families = (
        ("tree", lambda rng: zoo.random_cyclic_tree(rng, rng.randint(2, 3))),
        ("pushout", zoo.random_pushout),
        ("pair", zoo.random_product_diagram),
        ("loop", lambda rng: zoo.random_product_diagram(rng, loop=True)),
        ("elim", lambda rng: zoo.random_elimination_tree(rng)[0]),
    )
    for name, build in families:
        for seed in range(1, 31):
            yield f"{name}@{seed}", pi1_presentation(build(random.Random(seed)))
    for n in range(1, 97):
        yield f"Z/{n}", pi1_presentation(one_vertex(cyclic_table(n)))
    for k in range(1, 6):
        group = functools.reduce(direct_product, [cyclic_table(2)] * k)
        yield f"(Z/2)^{k}", pi1_presentation(one_vertex(group))
    for n in range(3, 9):
        yield f"D{n}", pi1_presentation(one_vertex(dihedral_table(n)))


def seeded_oracle_words(case, p):
    """Twelve words seeded by the case id, in turn: a random word, a random
    word followed by its inverse letters in shuffled order (trivial in the
    abelianization), and a power of one letter."""
    rng = random.Random(case)
    letters = [(g.name, s) for g in p.generators for s in (1, -1)]
    words = []
    for k in range(12):
        w = [rng.choice(letters) for _ in range(rng.randint(0, 8))] if letters else []
        if k % 3 == 1:
            back = [(n, -s) for n, s in w]
            rng.shuffle(back)
            w += back
        elif k % 3 == 2 and letters:
            w = [rng.choice(letters)] * rng.randint(1, 12)
        words.append(w)
    return words


def presentation_digest_line(case, p):
    """'<case>: <sha256>' over the abelianization, the exponent matrix,
    the relator codes, the abelian oracle's answers on seeded words and
    the enumeration at cap 2000: its dump and cosets_defined, or the word
    cap when the cap is hit."""
    oracle = QuotientOracle.abelianization()
    answers = [oracle_answer(oracle, p, w).trivial for w in seeded_oracle_words(case, p)]
    try:
        table = coset_enumeration(p, 2000)
    except CapExceeded:
        enumerated = "cap"
    else:
        enumerated = f"{table.dump()}{table.cosets_defined}"
    parts = [str(abelianization(p)), repr(exponent_matrix(p)), repr(p.relator_codes),
             repr(answers), enumerated]
    return f"{case}: {hashlib.sha256(chr(10).join(parts).encode()).hexdigest()}"


def test_presentation_readers_match_their_digests():
    expected = PRESENTATION_DIGESTS.read_text().splitlines()
    got = [presentation_digest_line(case, p) for case, p in presentation_cases()]
    changed = [line for line in difflib.ndiff(expected, got) if line[:2] in ("- ", "+ ")]
    assert not changed, f"presentation readers differ from {PRESENTATION_DIGESTS.name}:\n" + "\n".join(changed)


class TestRelatorRows:
    """Each presentation derives its relator rows once: one Smith form
    serves every abelian reader, and a row count refuses enumeration of a
    group the rows prove infinite."""

    INFINITE_FIXTURES = [path for path in sorted(FIXTURES.glob("*.gog"))
                         if path.name not in ("finite-star.gog", "pushout46.gog")]

    def test_one_smith_form_serves_every_abelian_read(self, monkeypatch):
        presentations = [pi1_presentation(one_vertex(cyclic_table(96, "g"))),
                         pi1_presentation(zoo.klein()), pi1_presentation(zoo.z3f2()),
                         pres(["t"], []), pres([], [])]
        built = []
        init = SmithForm.__init__

        def counted(self, m):
            built.append(m)
            init(self, m)

        monkeypatch.setattr(SmithForm, "__init__", counted)
        oracle = QuotientOracle.abelianization()
        for p in presentations:
            built.clear()
            letters = [(g.name, 1) for g in p.generators]
            for k in range(20):
                oracle_answer(oracle, p, letters * k)
                abelianization(p)
            assert len(built) == 1, p.generators

    def test_too_few_rows_refuse_without_enumerating(self, monkeypatch, capsys):
        presentations = [pi1_presentation(parse_gog(str(path))) for path in self.INFINITE_FIXTURES]
        # no relators; and relators, but one row on two generators
        presentations += [pres(["t"], []), pres(["t", "u"], [[("t", 1), ("u", -1)]])]

        def refuse(*args):
            raise AssertionError("an enumerator or a Smith form was built")

        monkeypatch.setattr(quotients, "_Enumerator", refuse)
        monkeypatch.setattr(SmithForm, "__init__", refuse)
        assert len(self.INFINITE_FIXTURES) == 12
        for p in presentations:
            assert len(p._exponent_rows) < len(p.generators)
            with pytest.raises(CapExceeded, match="distinct nonzero exponent rows"):
                coset_enumeration(p, 5000)
        for path in self.INFINITE_FIXTURES:
            for argv in (["convert", "--oracle", "enum:5000"], ["enumerate", "--cap", "5000"]):
                assert main([*argv, str(path)]) == 3, path.name
                out, err = capsys.readouterr()
                assert out == "" and err.startswith("inconclusive: "), (path.name, err)

    def test_a_zero_column_refuses_without_enumerating(self, monkeypatch, capsys, tmp_path):
        # <a, b | a^2, a^3 b a b^-1>: two rows on two generators, but b has
        # exponent sum 0 in both, so the rows span a rank-1 lattice
        p = pres(["a", "b"], [[("a", 1)] * 2, [("a", 1)] * 3 + [("b", 1), ("a", 1), ("b", -1)]])
        assert p._exponent_rows == ((2, 0), (4, 0))
        # a loop diagram of the digest corpus with a zero column, through the CLI
        path = tmp_path / "loop1.gog"
        path.write_text(serialize_gog(zoo.random_product_diagram(random.Random(1), loop=True)))
        loop = pi1_presentation(parse_gog(str(path)))
        assert len(loop._exponent_rows) >= len(loop.generators)

        def refuse(*args):
            raise AssertionError("an enumerator was built")

        monkeypatch.setattr(quotients, "_Enumerator", refuse)
        for q in (p, loop):
            with pytest.raises(CapExceeded, match="exponent rank at most"):
                coset_enumeration(q, 2000)
        with pytest.raises(CapExceeded, match=r"rows: 2, nonzero columns: 1\)"):
            coset_enumeration(p, 2000)
        assert main(["enumerate", "--cap", "5000", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("inconclusive: exponent rank at most"), err

    def test_as_many_rows_as_generators_still_enumerate(self):
        # Z/2 * Z/2 is infinite, but its two rows span a rank-2 lattice: the
        # count cannot tell, so the enumeration runs to its cap
        p = pres(["a", "b"], [[("a", 1)] * 2, [("b", 1)] * 2])
        with pytest.raises(CapExceeded, match="cap 100 reached"):
            coset_enumeration(p, 100)

    def test_abelian_readers_agree_with_the_dense_routes(self):
        # the routes the shared form replaced: a Smith form of every relator
        # copy's row, and one of its transpose per oracle call
        oracle = QuotientOracle.abelianization()
        for case, p in presentation_cases():
            m = exponent_matrix(p)
            nonzero = [x for x in SmithForm(m).diagonal if x]
            expected = InvariantFactors(tuple(x for x in nonzero if x != 1),
                                        len(p.generators) - len(nonzero))
            assert abelianization(p) == expected, case
            dense = SmithForm([[row[c] for row in m] for c in range(len(p.generators))])
            for w in seeded_oracle_words(case, p):
                solvable = dense.scaled(word_exponent_vector(p, w)) is not None
                assert oracle_answer(oracle, p, w).trivial == solvable, (case, w)


def test_matrix_shape_texts():
    with pytest.raises(ValueError, match="^matrix/vector shape mismatch$"):
        mat_vec([[1, 2]], [1])
    with pytest.raises(ValueError, match="^ragged matrix$"):
        SmithForm([[1, 2], [3]])
