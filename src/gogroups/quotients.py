"""Computable quotient services.

Certified integer Smith normal form (``SmithForm``), abelianization of a
presentation into invariant factors, and a capped HLT (relator-based
Todd-Coxeter) coset enumeration over the trivial subgroup.  These are the
oracle backends used by diagram conversion and by the cross-validation
tests of the pinch reducer.  They read a presentation only through
``encode``, ``relator_codes`` and its derived relator rows: one Smith form
of the rows serves ``abelianization`` and the abelianization oracle, and
enumeration refuses at once, from the count of distinct nonzero rows or of
nonzero columns, a group the rows prove infinite.

Everything here works over arbitrary-precision Python ints; matrices are
plain lists of lists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .errors import CapExceeded, OracleIncomplete
from .folding import free_exponents, free_reduce

IntMatrix = list  # list[list[int]]; rows of equal length

# ---------------------------------------------------------------------------
# basic integer-matrix helpers


def mat_identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: IntMatrix, x: list) -> list:
    if a and len(a[0]) != len(x):
        raise ValueError("matrix/vector shape mismatch")
    return [sum(row[k] * x[k] for k in range(len(x))) for row in a]


def _shape(m: IntMatrix) -> tuple:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(r) != cols for r in m):
        raise ValueError("ragged matrix")
    return rows, cols


# ---------------------------------------------------------------------------
# Smith normal form
#
# An elementary operation is ("row" | "col", "swap", i, j), (side, "neg", i)
# or (side, "add", i, j, k): line i += k * line j, with j != i.  Each one is
# invertible over Z, so any product of them is unimodular.


def _apply(a: IntMatrix, op) -> None:
    """Apply one elementary operation to ``a`` in place."""
    side, name, i, *rest = op
    if side == "row":
        if name == "swap":
            a[i], a[rest[0]] = a[rest[0]], a[i]
        elif name == "neg":
            a[i] = [-x for x in a[i]]
        else:
            a[i] = [x + rest[1] * y for x, y in zip(a[i], a[rest[0]])]
    elif name == "swap":
        for r in a:
            r[i], r[rest[0]] = r[rest[0]], r[i]
    elif name == "neg":
        for r in a:
            r[i] = -r[i]
    else:
        j, k = rest
        for r in a:
            r[i] += k * r[j]


def _certify(m: IntMatrix, ops, d: IntMatrix) -> None:
    """Raise AssertionError unless every entry of ``ops`` is an elementary
    operation, replaying ``ops`` on a copy of m gives d exactly, and d is
    diagonal with d1 | d2 | ... >= 0.  Explicit raises, so ``python -O``
    keeps the check."""
    rows, cols = _shape(m)
    arity = {"swap": 2, "neg": 1, "add": 3}
    a = [list(row) for row in m]
    for op in ops:
        if not (len(op) >= 3 and op[0] in ("row", "col") and arity.get(op[1]) == len(op) - 2):
            raise AssertionError(f"SNF log entry {op!r} is not an elementary operation")
        size = rows if op[0] == "row" else cols
        lines = op[2:] if op[1] != "add" else op[2:4]
        if not all(type(x) is int and 0 <= x < size for x in lines):
            raise AssertionError(f"SNF log entry {op!r} indexes outside the matrix")
        if op[1] == "add" and (op[2] == op[3] or type(op[4]) is not int):
            raise AssertionError(f"SNF log entry {op!r} is not an elementary addition")
        _apply(a, op)
    if a != d:
        raise AssertionError("SNF operation log does not replay to D")
    if any(d[i][j] for i in range(rows) for j in range(cols) if i != j):
        raise AssertionError("SNF result not diagonal")
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i, x in enumerate(diag):
        if x < 0:
            raise AssertionError("SNF diagonal entry negative")
        if i + 1 < len(diag) and (diag[i + 1] % x != 0 if x else diag[i + 1] != 0):
            raise AssertionError("SNF divisibility chain broken")


def _eliminate(m: IntMatrix):
    """Return (ops, D): a log of elementary operations carrying m to its
    Smith normal form D.

    Pivoting picks the smallest nonzero absolute value in the remaining
    submatrix, which keeps entry growth modest; all arithmetic is exact.
    """
    rows, cols = _shape(m)
    a = [list(row) for row in m]
    ops = []

    def step(*op):
        _apply(a, op)
        ops.append(op)

    t = 0
    while t < rows and t < cols:
        # locate smallest nonzero |entry| in the submatrix
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        if i != t:
            step("row", "swap", t, i)
        if j != t:
            step("col", "swap", t, j)
        if a[t][t] < 0:
            step("row", "neg", t)
        # clear row and column t; restart when a remainder shrinks the pivot
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                step("row", "add", i, t, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                step("col", "add", j, t, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility: pivot must divide every remaining entry
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            step("row", "add", t, offender, 1)
            continue
        t += 1
    return tuple(ops), a


class SmithForm:
    """Smith normal form D = U @ m @ V of an integer matrix m.

    The form keeps the elimination's operation log (``ops``) and is
    certified by ``_certify`` when it is built.  ``diagonal`` holds
    d1 | d2 | ... >= 0; U, V and U^-1 are built from the log the first time
    they are read, and ``v_rows`` replays the leading rows of V alone.
    """

    def __init__(self, m: IntMatrix):
        self.rows, self.cols = _shape(m)
        self.ops, d = _eliminate(m)
        _certify(m, self.ops, d)
        self.diagonal = tuple(d[i][i] for i in range(min(self.rows, self.cols)))

    def _replayed(self, side: str, x: IntMatrix) -> IntMatrix:
        for op in self.ops:
            if op[0] == side:
                _apply(x, op)
        return x

    @cached_property
    def u(self) -> IntMatrix:
        return self._replayed("row", mat_identity(self.rows))

    @cached_property
    def v(self) -> IntMatrix:
        return self.v_rows(self.cols)

    def v_rows(self, k: int) -> IntMatrix:
        """Rows 0..k-1 of V and no others: the column operations replayed
        on the first k rows of the identity."""
        return self._replayed("col", [[int(i == j) for j in range(self.cols)] for i in range(k)])

    @cached_property
    def u_inv(self) -> IntMatrix:
        """U^-1: each row operation's inverse, applied as a column operation
        in log order."""
        x = mat_identity(self.rows)
        for side, name, i, *rest in self.ops:
            if side == "row":
                if name == "add":  # row i += k row j  ->  col j -= k col i
                    i, rest = rest[0], [i, -rest[1]]
                _apply(x, ("col", name, i, *rest))
        return x

    def scaled(self, y: list):
        """The U-side step of ``solve``: z with D @ z == U @ y, or None when
        there is none, that is when m @ x == y has no integer solution."""
        if len(y) != self.rows:
            raise ValueError("rhs length mismatch")
        uy, d = mat_vec(self.u, y), self.diagonal
        # row i reads d_i z_i == (U y)_i, with d_i = 0 past the diagonal
        if any(uy[i] % d[i] if i < len(d) and d[i] else uy[i] for i in range(self.rows)):
            return None
        return [uy[i] // d[i] if i < len(d) and d[i] else 0 for i in range(self.cols)]

    def solve(self, y: list):
        """One integer solution x = V @ z of m @ x == y, z = ``scaled(y)``,
        or None when unsolvable."""
        z = self.scaled(y)
        return None if z is None else mat_vec(self.v, z)

    def solver(self):
        """``solve`` compiled, without its shape check: y -> the tuple of
        ``solve(y)``, or None when unsolvable.  z vanishes off the nonzero
        diagonal, so only U's rows and V's columns at the pivots are kept,
        as row tuples."""
        u, v, d = self.u, self.v, self.diagonal
        pivots = [i for i in range(len(d)) if d[i]]
        # row i of D z = U y reads d_i z_i = (U y)_i, with d_i = 0 off the pivots
        vanishing = tuple(tuple(u[i]) for i in range(self.rows) if i not in pivots)
        scaled = tuple((tuple(u[i]), d[i]) for i in pivots)
        v_pivots = tuple(tuple(row[j] for j in pivots) for row in v)

        def solve(y):
            for row in vanishing:
                if sum(map(mul, row, y)):
                    return None
            z = []
            for row, dk in scaled:
                q, r = divmod(sum(map(mul, row, y)), dk)
                if r:
                    return None
                z.append(q)
            return tuple([sum(map(mul, row, z)) for row in v_pivots])

        return solve

    def kernel(self) -> list:
        """Basis (list of vectors) of the integer kernel {x : m @ x == 0}:
        the columns of V past the nonzero diagonal."""
        return [
            [row[j] for row in self.v]
            for j in range(self.cols)
            if j >= self.rows or self.diagonal[j] == 0
        ]

    def cokernel(self) -> list:
        """Z^rows / (column lattice of m) as a sum of cyclic groups Z/d_i:
        one (d_i, generator) pair per row, with d_i = 0 past the diagonal and
        the generator column i of U^-1."""
        return [
            (self.diagonal[i] if i < self.cols else 0, tuple(row[i] for row in self.u_inv))
            for i in range(self.rows)
        ]


# ---------------------------------------------------------------------------
# abelianization of a presentation


@dataclass(frozen=True)
class InvariantFactors:
    """Torsion factors d1 | d2 | ... (each >= 2) plus a free rank."""

    torsion: tuple
    free_rank: int

    def __post_init__(self):
        for i, d in enumerate(self.torsion):
            if d < 2:
                raise ValueError("torsion factor < 2 stored")
            if i and d % self.torsion[i - 1] != 0:
                raise ValueError("divisibility chain broken")

    def __str__(self):
        parts = [f"Z/{d}" for d in self.torsion] + ["Z"] * self.free_rank
        return " x ".join(parts) if parts else "trivial"


def exponent_matrix(presentation) -> IntMatrix:
    """Relator exponent-sum matrix: one row per relator, one column per
    generator, copied from the presentation's one row per relator object."""
    rows = presentation._relator_rows
    return [list(rows[id(rel)]) for rel in presentation.relators]


def abelianization(presentation) -> InvariantFactors:
    """Invariant factors of the abelianized presentation, read off the
    diagonal of the presentation's one Smith form of its relator rows."""
    nonzero = [x for x in presentation._abelian_form.diagonal if x != 0]
    torsion = tuple(x for x in nonzero if x != 1)
    return InvariantFactors(torsion, len(presentation.generators) - len(nonzero))


def word_exponent_vector(presentation, word) -> list:
    """Exponent sum of each generator in ``word``, by column."""
    return free_exponents(presentation.encode(word), len(presentation.generators))


# ---------------------------------------------------------------------------
# coset enumeration (relator-based HLT over the trivial subgroup)
#
# A coset table has column 2i for generator i (from 0) and 2i + 1 for its
# inverse, so x ^ 1 undoes column x.  ``coset_columns`` is the one place
# columns are derived from a free word (``Presentation.encode``): for
# ``Presentation.relator_codes``, ``action``, ``oracle_answer`` and
# ``permutation``.


def coset_columns(word) -> tuple:
    """The coset-table columns a free word reads, letter by letter."""
    return tuple([2 * s - 2 if s > 0 else -2 * s - 1 for s in word])


@dataclass
class CosetTable:
    """Completed or partial coset table for a presentation.

    Rows are compressed to live cosets, numbered in discovery order;
    ``order`` is the group order when the enumeration completed.
    """

    presentation: object  # a gog.Presentation
    table: list
    completed: bool
    order: int = None
    cosets_defined: int = 0

    def action(self, coset: int, word) -> int:
        """Apply a word (list of (name, sign)) to a coset."""
        return self._walk(coset, self.presentation.encode(word))

    def _walk(self, coset: int, codes) -> int:
        """Apply a free word (``Presentation.encode``) to a coset."""
        table = self.table
        for col in coset_columns(codes):
            coset = table[coset][col]
            if coset is None:
                raise OracleIncomplete("coset table is not closed under the word")
        return coset

    def permutation(self, word) -> tuple:
        """The word's action on every coset of a completed table: entry c
        is ``action(c, word)``."""
        if not self.completed:
            raise OracleIncomplete("coset table is not complete")
        return tuple(self._images(coset_columns(self.presentation.encode(word))))

    def _images(self, columns) -> list:
        """The image of every coset under a word of columns."""
        table = self.table
        image = range(len(table))
        for col in columns:
            image = [table[c][col] for c in image]
        return list(image)

    def dump(self) -> str:
        lines = [f"cosets={len(self.table)} completed={str(self.completed).lower()}"]
        gens = range(len(self.presentation.generators))
        lines += (" ".join(str(row[2 * i]) for i in gens) for row in self.table)
        return "\n".join(lines) + "\n"

    def replay_check(self) -> bool:
        """Every relator must fix every coset, and columns must be bijections."""
        if not self.completed:
            return False
        identity = list(range(len(self.table)))
        for x in range(0, 2 * len(self.presentation.generators), 2):
            # generator x/2 permutes the cosets, and its inverse column undoes it
            if sorted(self._images((x,))) != identity or self._images((x, x + 1)) != identity:
                return False
        return all(self._images(codes) == identity for codes in self.presentation.relator_codes)


class _Enumerator:
    """Internal HLT state: rows over 2g columns, with coincidence processing."""

    def __init__(self, n_letters, cap):
        self.width = n_letters
        self.cap = cap
        self.table = [[None] * n_letters]
        self.p = [0]
        self.defined = 1

    def is_live(self, c):
        return self.p[c] == c

    def rep(self, c):
        while self.p[c] != c:
            self.p[c] = self.p[self.p[c]]
            c = self.p[c]
        return c

    def define(self, alpha, x):
        if self.defined >= self.cap:
            raise CapExceeded(
                f"coset enumeration defined {self.defined} cosets; cap {self.cap} reached"
            )
        beta = len(self.table)
        self.table.append([None] * self.width)
        self.p.append(beta)
        self.defined += 1
        self.table[alpha][x] = beta
        self.table[beta][x ^ 1] = alpha
        return beta

    def merge(self, a, b, queue):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            lo, hi = min(a, b), max(a, b)
            self.p[hi] = lo
            queue.append(hi)

    def coincidence(self, a, b):
        queue = deque()
        self.merge(a, b, queue)
        while queue:
            gamma = queue.popleft()
            for x in range(self.width):
                delta = self.table[gamma][x]
                if delta is None:
                    continue
                self.table[delta][x ^ 1] = None
                mu, nu = self.rep(gamma), self.rep(delta)
                if self.table[mu][x] is not None:
                    self.merge(nu, self.table[mu][x], queue)
                elif self.table[nu][x ^ 1] is not None:
                    self.merge(mu, self.table[nu][x ^ 1], queue)
                else:
                    self.table[mu][x] = nu
                    self.table[nu][x ^ 1] = mu

    def scan_and_fill(self, alpha, word):
        f, b = alpha, alpha
        i, j = 0, len(word) - 1
        while True:
            while i <= j and self.table[f][word[i]] is not None:
                f = self.table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][word[j] ^ 1] is not None:
                b = self.table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self.table[f][word[i]] = b
                self.table[b][word[i] ^ 1] = f
                return
            self.define(f, word[i])


def coset_enumeration(presentation, cap: int) -> CosetTable:
    """Enumerate cosets of the trivial subgroup; raises CapExceeded when the
    number of cosets ever defined would pass ``cap``, or at once when the
    relators' exponent rows bound their lattice's rank below the generator
    count: fewer distinct nonzero rows than generators, or a generator
    whose exponent sum is 0 in every relator (a zero column).  Then pi1
    maps onto Z and the table never closes."""
    rows = presentation._exponent_rows
    n_gens, n_rows, n_cols = len(presentation.generators), len(rows), sum(map(any, zip(*rows)))
    if min(n_rows, n_cols) < n_gens:
        raise CapExceeded(f"exponent rank at most {min(n_rows, n_cols)} on {n_gens} generators "
                          f"(distinct nonzero exponent rows: {n_rows}, nonzero columns: {n_cols}): "
                          f"pi1 maps onto Z, so enumeration cannot close (cap {cap})")
    relators = presentation.relator_codes
    st = _Enumerator(2 * n_gens, cap)
    alpha = 0
    while alpha < len(st.table):
        if st.is_live(alpha):
            for rel in relators:
                st.scan_and_fill(alpha, rel)
                if not st.is_live(alpha):
                    break
            if st.is_live(alpha):
                for x in range(st.width):
                    if st.table[alpha][x] is None:
                        st.define(alpha, x)
        alpha += 1

    live = [c for c in range(len(st.table)) if st.is_live(c)]
    renumber = {c: i for i, c in enumerate(live)}
    rows = [[None if e is None else renumber[st.rep(e)] for e in st.table[c]] for c in live]
    completed = all(entry is not None for row in rows for entry in row)
    result = CosetTable(presentation, rows, completed, len(rows) if completed else None, st.defined)
    if completed and not result.replay_check():
        raise AssertionError("completed coset table failed replay")
    return result


# ---------------------------------------------------------------------------
# quotient oracles


@dataclass(frozen=True)
class QuotientOracle:
    """A word-problem oracle together with the condition making it exact.

    kind is one of "abelianization", "finite_enumeration", "free_reduction".
    Every answer and every converted graph of groups carries the soundness
    tag, so approximate answers are machine-visibly approximate.
    """

    kind: str
    cap: int = None
    asserted_abelian: bool = False

    def __post_init__(self):
        if self.kind not in ("abelianization", "finite_enumeration", "free_reduction"):
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        if self.kind == "finite_enumeration" and (self.cap is None or self.cap < 1):
            raise ValueError("finite_enumeration oracle needs a positive cap")

    @classmethod
    def abelianization(cls, asserted_abelian: bool = False):
        return cls("abelianization", asserted_abelian=asserted_abelian)

    @classmethod
    def finite_enumeration(cls, cap: int):
        return cls("finite_enumeration", cap=cap)

    @classmethod
    def free_reduction(cls):
        return cls("free_reduction")

    def soundness(self) -> str:
        if self.kind == "abelianization":
            note = "caller asserts abelian" if self.asserted_abelian else "not asserted"
            return f"sound iff pi1 is abelian ({note})"
        if self.kind == "finite_enumeration":
            return f"exact iff enumeration completes (cap {self.cap})"
        return "exact iff the presentation has no relators"


@dataclass(frozen=True)
class OracleAnswer:
    trivial: bool
    exact: bool
    soundness: str


def oracle_answer(oracle: QuotientOracle, presentation, word) -> OracleAnswer:
    """Triviality of a word in the oracle quotient, tagged with soundness."""
    codes = presentation.encode(word)  # rejects unknown letters
    if oracle.kind == "finite_enumeration":
        table = coset_enumeration(presentation, oracle.cap)
        trivial = table._walk(0, codes) == 0
        return OracleAnswer(trivial, True, oracle.soundness())
    if oracle.kind == "abelianization":
        vec = free_exponents(codes, len(presentation.generators))
        # vec must lie in the lattice of the relator rows, the form's column lattice
        trivial = presentation._abelian_form.scaled(vec) is not None
        return OracleAnswer(trivial, oracle.asserted_abelian, oracle.soundness())
    # free reduction
    trivial = free_reduce(codes) == ()
    return OracleAnswer(trivial, len(presentation.relators) == 0, oracle.soundness())
