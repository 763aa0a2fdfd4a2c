"""Computable quotient services.

Integer Smith normal form with transform matrices, abelianization of a
presentation into invariant factors, and a capped HLT (relator-based
Todd-Coxeter) coset enumeration over the trivial subgroup.  These are the
oracle backends used by diagram conversion and by the cross-validation
tests of the pinch reducer.

Everything here works over arbitrary-precision Python ints; matrices are
plain lists of lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import CapExceeded, OracleIncomplete, UnknownLetter

IntMatrix = list  # list[list[int]]; rows of equal length

# ---------------------------------------------------------------------------
# basic integer-matrix helpers


def mat_identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    cols = len(b[0]) if b else 0
    return [
        [sum(ra[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for ra in a
    ]


def mat_vec(a: IntMatrix, x: list) -> list:
    if a and len(a[0]) != len(x):
        raise ValueError("matrix/vector shape mismatch")
    return [sum(row[k] * x[k] for k in range(len(x))) for row in a]


def mat_det(a: IntMatrix) -> int:
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


def _shape(m: IntMatrix) -> tuple:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(r) != cols for r in m):
        raise ValueError("ragged matrix")
    return rows, cols


# ---------------------------------------------------------------------------
# Smith normal form


def _snf_engine(m: IntMatrix):
    """Return (U, D, V) with U @ m @ V == D in Smith normal form.

    Pivoting picks the smallest nonzero absolute value in the remaining
    submatrix, which keeps entry growth modest; all arithmetic is exact.
    """
    rows, cols = _shape(m)
    a = [list(row) for row in m]
    u = mat_identity(rows)
    v = mat_identity(cols)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, k):
        # row i += k * row j
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        u[i] = [x + k * y for x, y in zip(u[i], u[j])]

    def col_add(i, j, k):
        # col i += k * col j
        for r in a:
            r[i] += k * r[j]
        for r in v:
            r[i] += k * r[j]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

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
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if a[t][t] < 0:
            row_negate(t)
        # clear row and column t; restart when a remainder shrinks the pivot
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                row_add(i, t, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                col_add(j, t, -q)
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
            row_add(t, offender, 1)
            continue
        t += 1
    return u, a, v


def smith_normal_form(m: IntMatrix):
    """Smith normal form with transforms: returns (U, D, V), U @ m @ V == D.

    D is diagonal with d1 | d2 | ... >= 0 and U, V unimodular; all three
    claims are re-verified before returning.
    """
    u, d, v = _snf_engine(m)
    rows, cols = _shape(m)
    assert mat_mul(mat_mul(u, m), v) == d, "SNF transform product mismatch"
    assert abs(mat_det(u)) == 1 and abs(mat_det(v)) == 1, "SNF transforms not unimodular"
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(len(diag) - 1):
        if diag[i] != 0:
            assert diag[i + 1] % diag[i] == 0, "SNF divisibility chain broken"
        else:
            assert diag[i + 1] == 0, "SNF zero diagonal not terminal"
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0, "SNF result not diagonal"
    return u, d, v


def snf_solve(snf, y: list):
    """One integer solution x of m @ x == y, given m's Smith normal form
    (U, D, V), or None when unsolvable; m has len(V) columns."""
    u, d, v = snf
    cols = len(v)
    uy = mat_vec(u, y)
    z = [0] * cols
    for i in range(len(u)):
        di = d[i][i] if i < cols else 0
        if di == 0:
            if uy[i] != 0:
                return None
        else:
            if uy[i] % di != 0:
                return None
            z[i] = uy[i] // di
    return mat_vec(v, z)


def solve_int(m: IntMatrix, y: list):
    """One integer solution x of m @ x == y, or None when unsolvable."""
    rows, _ = _shape(m)
    if len(y) != rows:
        raise ValueError("rhs length mismatch")
    return snf_solve(_snf_engine(m), y)


def int_kernel(m: IntMatrix) -> list:
    """Basis (list of vectors) of the integer kernel {x : m @ x == 0}."""
    rows, cols = _shape(m)
    _, d, v = _snf_engine(m)
    basis = []
    for j in range(cols):
        dj = d[j][j] if j < rows else 0
        if dj == 0:
            basis.append([v[i][j] for i in range(cols)])
    return basis


def mat_int_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular integer matrix."""
    n, c = _shape(m)
    if n != c:
        raise ValueError("not square")
    u, d, v = _snf_engine(m)
    for i in range(n):
        if d[i][i] != 1:
            raise ValueError("matrix not unimodular")
    # U m V = I  =>  m^-1 = V U
    inv = mat_mul(v, u)
    assert mat_mul(inv, m) == mat_identity(n)
    return inv


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
    """Relator exponent-sum matrix: one row per relator, one column per generator."""
    return [word_exponent_vector(presentation, rel) for rel in presentation.relators]


def abelianization(presentation) -> InvariantFactors:
    """Invariant factors of the abelianized presentation."""
    n_gens = len(presentation.generators)
    m = exponent_matrix(presentation)
    _, d, _ = smith_normal_form(m)
    diag = [d[i][i] for i in range(min(len(m), n_gens))]
    nonzero = [x for x in diag if x != 0]
    torsion = tuple(x for x in nonzero if x != 1)
    return InvariantFactors(torsion, n_gens - len(nonzero))


def word_exponent_vector(presentation, word) -> list:
    """Exponent sum of each generator in ``word``, by column."""
    vec = [0] * len(presentation.generators)
    for name, sign in word:
        vec[presentation.column(name)] += sign
    return vec


# ---------------------------------------------------------------------------
# coset enumeration (relator-based HLT over the trivial subgroup)


@dataclass
class CosetTable:
    """Completed or partial coset table for a presentation.

    Columns follow ``alphabet``: generator 2i is generators[i], 2i+1 its
    inverse.  Rows are compressed to live cosets, numbered in discovery
    order; ``order`` is the group order when the enumeration completed.
    """

    generator_names: tuple
    table: list
    completed: bool
    order: int = None
    cosets_defined: int = 0

    @cached_property
    def _column_index(self) -> dict:
        return {n: i for i, n in enumerate(self.generator_names)}

    def action(self, coset: int, word) -> int:
        """Apply a word (list of (name, sign)) to a coset."""
        index = self._column_index
        c = coset
        for name, sign in word:
            try:
                col = 2 * index[name] + (0 if sign > 0 else 1)
            except (KeyError, TypeError):  # an unhashable name names no generator
                raise UnknownLetter(f"word letter {name!r} is not a generator") from None
            c = self.table[c][col]
            if c is None:
                raise OracleIncomplete("coset table is not closed under the word")
        return c

    def dump(self) -> str:
        lines = [f"cosets={len(self.table)} completed={str(self.completed).lower()}"]
        for row in self.table:
            entries = [str(row[2 * i]) for i in range(len(self.generator_names))]
            lines.append(" ".join(entries))
        return "\n".join(lines) + "\n"

    def replay_check(self, presentation) -> bool:
        """Every relator must fix every coset, and columns must be bijections."""
        if not self.completed:
            return False
        n = len(self.table)
        for gi in range(len(self.generator_names)):
            fwd = [row[2 * gi] for row in self.table]
            bwd = [row[2 * gi + 1] for row in self.table]
            if sorted(fwd) != list(range(n)) or sorted(bwd) != list(range(n)):
                return False
            for c in range(n):
                if bwd[fwd[c]] != c:
                    return False
        for rel in presentation.relators:
            for c in range(n):
                if self.action(c, rel) != c:
                    return False
        return True


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
        queue = []
        self.merge(a, b, queue)
        while queue:
            gamma = queue.pop(0)
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
    number of cosets ever defined would pass ``cap``."""
    names = tuple(g.name for g in presentation.generators)
    relators = []
    for rel in presentation.relators:
        seq = [2 * presentation.column(name) + (0 if sign > 0 else 1) for name, sign in rel]
        if seq:
            relators.append(seq)
    if not relators and names:
        # no relators and at least one generator: free, never closes
        raise CapExceeded(f"free presentation on {len(names)} letters cannot close (cap {cap})")

    st = _Enumerator(2 * len(names), max(cap, 1))
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
    rows = []
    for c in live:
        row = []
        for x in range(st.width):
            entry = st.table[c][x]
            row.append(None if entry is None else renumber[st.rep(entry)])
        rows.append(row)
    completed = all(entry is not None for row in rows for entry in row)
    result = CosetTable(
        generator_names=names,
        table=rows,
        completed=completed,
        order=len(rows) if completed else None,
        cosets_defined=st.defined,
    )
    if completed:
        assert result.replay_check(presentation), "completed coset table failed replay"
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


def freely_reduce(word) -> tuple:
    """Cancel adjacent (name, sign), (name, -sign) pairs in a word of
    (letter name, +1 | -1) pairs."""
    out = []
    for name, sign in word:
        if out and out[-1][0] == name and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((name, sign))
    return tuple(out)


def oracle_answer(oracle: QuotientOracle, presentation, word) -> OracleAnswer:
    """Triviality of a word in the oracle quotient, tagged with soundness."""
    vec = word_exponent_vector(presentation, word)  # rejects unknown letters
    if oracle.kind == "finite_enumeration":
        table = coset_enumeration(presentation, oracle.cap)
        trivial = table.action(0, word) == 0
        return OracleAnswer(trivial, True, oracle.soundness())
    if oracle.kind == "abelianization":
        # vec must lie in the row lattice: solve transpose(m) @ x == vec
        m = exponent_matrix(presentation)
        mt = [[row[c] for row in m] for c in range(len(vec))]
        trivial = solve_int(mt, vec) is not None
        return OracleAnswer(trivial, oracle.asserted_abelian, oracle.soundness())
    # free reduction
    trivial = freely_reduce(word) == ()
    return OracleAnswer(trivial, len(presentation.relators) == 0, oracle.soundness())
