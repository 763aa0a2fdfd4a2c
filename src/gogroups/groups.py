"""The three computable group classes (free abelian, finite multiplication
table, free) with element arithmetic, homomorphisms between them, and the
decidability services every other module consumes: injectivity, image
membership with preimages, cogenerators, and rank.

Element encodings are bare Python values, dispatched through the group:
free abelian elements are int tuples, finite-table elements are indices,
free-group elements are tuples of signed 1-based letter numbers.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

from . import quotients
from .errors import ShapeMismatch, UnsupportedHom
from .folding import FoldedSubgroup, free_inv, free_mul, free_reduce

MAX_TABLE = 4096


# ---------------------------------------------------------------------------
# group descriptions


class GroupDesc:
    """Common surface of the three group classes."""

    def identity(self):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def check(self, x):
        """Raise ShapeMismatch unless x is an element of this group."""
        raise NotImplementedError

    def is_identity(self, x):
        self.check(x)
        return x == self.identity()

    def power(self, x, k: int):
        if k < 0:
            return self.power(self.inv(x), -k)
        acc = self.identity()
        base = x
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def generators(self) -> tuple:
        raise NotImplementedError

    def generator_names(self) -> tuple:
        raise NotImplementedError

    def spell(self, x) -> tuple:
        """x as a sequence of (generator index, +-1) letters."""
        raise NotImplementedError

    def order(self):
        """Group order, or None when infinite."""
        raise NotImplementedError


def _default_names(prefix: str, rank: int) -> tuple:
    return tuple(f"{prefix}{i + 1}" for i in range(rank))


@dataclass(frozen=True)
class FreeAbelian(GroupDesc):
    rank: int
    names: tuple = field(default=None, compare=False)

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        names = self.names or _default_names("x", self.rank)
        if len(names) != self.rank:
            raise ValueError("name count != rank")
        object.__setattr__(self, "names", tuple(names))

    def identity(self):
        return (0,) * self.rank

    def mul(self, x, y):
        self.check(x), self.check(y)
        return tuple(a + b for a, b in zip(x, y))

    def inv(self, x):
        self.check(x)
        return tuple(-a for a in x)

    def power(self, x, k):
        self.check(x)
        return tuple(k * a for a in x)

    def check(self, x):
        if not (isinstance(x, tuple) and len(x) == self.rank and all(isinstance(a, int) for a in x)):
            raise ShapeMismatch(f"{x!r} is not a Z^{self.rank} element")

    def generators(self):
        return tuple(tuple(1 if i == j else 0 for j in range(self.rank)) for i in range(self.rank))

    def generator_names(self):
        return self.names

    def spell(self, x):
        self.check(x)
        out = []
        for i, k in enumerate(x):
            out.extend([(i, 1 if k > 0 else -1)] * abs(k))
        return tuple(out)

    def order(self):
        return 1 if self.rank == 0 else None


@dataclass(frozen=True)
class FreeGroup(GroupDesc):
    rank: int
    names: tuple = field(default=None, compare=False)

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        names = self.names or _default_names("x", self.rank)
        if len(names) != self.rank:
            raise ValueError("name count != rank")
        object.__setattr__(self, "names", tuple(names))

    def identity(self):
        return ()

    def mul(self, x, y):
        self.check(x), self.check(y)
        return free_mul(x, y)

    def inv(self, x):
        self.check(x)
        return free_inv(x)

    def check(self, x):
        ok = (
            isinstance(x, tuple)
            and all(isinstance(s, int) and s != 0 and abs(s) <= self.rank for s in x)
            and free_reduce(x) == x
        )
        if not ok:
            raise ShapeMismatch(f"{x!r} is not a reduced F({self.rank}) word")

    def generators(self):
        return tuple((i + 1,) for i in range(self.rank))

    def generator_names(self):
        return self.names

    def spell(self, x):
        self.check(x)
        return tuple((abs(s) - 1, 1 if s > 0 else -1) for s in x)

    def order(self):
        return 1 if self.rank == 0 else None


@dataclass(frozen=True)
class FiniteTable(GroupDesc):
    labels: tuple = field(compare=False)
    mul_table: tuple
    id_index: int
    inv_table: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.mul_table)
        if n == 0:
            raise ValueError("empty table")
        if n > MAX_TABLE:
            raise ValueError(f"table size {n} exceeds cap {MAX_TABLE}")
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        object.__setattr__(self, "mul_table", tuple(tuple(row) for row in self.mul_table))
        if len(self.labels) != n or any(len(row) != n for row in self.mul_table):
            raise ValueError("table shape mismatch")
        if any(not (0 <= v < n) for row in self.mul_table for v in row):
            raise ValueError("table entry out of range")
        if not (0 <= self.id_index < n):
            raise ValueError("identity index out of range")
        e = self.id_index
        for i in range(n):
            if self.mul_table[e][i] != i or self.mul_table[i][e] != i:
                raise ValueError("identity row/column violated")
        inv = [None] * n
        for i in range(n):
            js = [j for j in range(n) if self.mul_table[i][j] == e]
            if len(js) != 1 or self.mul_table[js[0]][i] != e:
                raise ValueError(f"element {i} lacks a two-sided inverse")
            inv[i] = js[0]
        object.__setattr__(self, "inv_table", tuple(inv))

    @classmethod
    def checked(cls, labels, mul_table, id_index) -> "FiniteTable":
        """Full axiom check (associativity is cubic; fine at desk scale)."""
        g = cls(tuple(labels), tuple(tuple(r) for r in mul_table), id_index)
        t = g.mul_table
        n = len(t)
        for a in range(n):
            ta = t[a]
            for b in range(n):
                tab = t[ta[b]]
                tb = t[b]
                for c in range(n):
                    if tab[c] != ta[tb[c]]:
                        raise ValueError(f"associativity fails at ({a},{b},{c})")
        return g

    def identity(self):
        return self.id_index

    def mul(self, x, y):
        self.check(x), self.check(y)
        return self.mul_table[x][y]

    def inv(self, x):
        self.check(x)
        return self.inv_table[x]

    def check(self, x):
        if not (isinstance(x, int) and 0 <= x < len(self.mul_table)):
            raise ShapeMismatch(f"{x!r} is not an index into a table of size {len(self.mul_table)}")

    def elements(self):
        return range(len(self.mul_table))

    def order(self):
        return len(self.mul_table)

    def generators(self):
        return _ft_generating_set(self)

    def generator_names(self):
        return tuple(self.labels[i] for i in _ft_generating_set(self))

    def spell(self, x):
        self.check(x)
        return _ft_spellings(self)[x]


@lru_cache(maxsize=None)
def _ft_closure(table: FiniteTable, gens: tuple) -> tuple:
    """Subgroup generated by gens, in BFS discovery order (identity first)."""
    seen = {table.id_index}
    order = [table.id_index]
    queue = deque([table.id_index])
    step = []
    for g in gens:
        step.extend((g, table.inv_table[g]))
    while queue:
        x = queue.popleft()
        for g in step:
            y = table.mul_table[x][g]
            if y not in seen:
                seen.add(y)
                order.append(y)
                queue.append(y)
    return tuple(order)


@lru_cache(maxsize=None)
def _ft_generating_set(table: FiniteTable) -> tuple:
    """First minimal generating subset, scanning subsets in index order."""
    n = len(table.mul_table)
    if n == 1:
        return ()
    candidates = [i for i in range(n) if i != table.id_index]
    for k in range(1, n + 1):
        for subset in itertools.combinations(candidates, k):
            if len(_ft_closure(table, subset)) == n:
                return subset
    raise AssertionError("no generating set found")


@lru_cache(maxsize=None)
def _ft_spellings(table: FiniteTable) -> tuple:
    """Shortest word over the chosen generators for every element (BFS)."""
    gens = _ft_generating_set(table)
    letters = []
    for gi, g in enumerate(gens):
        letters.append((g, (gi, 1)))
        letters.append((table.inv_table[g], (gi, -1)))
    words = {table.id_index: ()}
    queue = deque([table.id_index])
    while queue:
        x = queue.popleft()
        for g, letter in letters:
            y = table.mul_table[x][g]
            if y not in words:
                words[y] = words[x] + (letter,)
                queue.append(y)
    if len(words) != len(table.mul_table):
        raise AssertionError("generating set does not generate")
    return tuple(words[i] for i in range(len(table.mul_table)))


# -- table builders ----------------------------------------------------------


def cyclic_table(n: int, letter: str = "a") -> FiniteTable:
    if n < 1:
        raise ValueError("order must be positive")
    labels = ["e"] + [letter if i == 1 else f"{letter}{i}" for i in range(1, n)]
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteTable(tuple(labels), tuple(tuple(r) for r in mul), 0)


def direct_product(a: FiniteTable, b: FiniteTable) -> FiniteTable:
    na, nb = a.order(), b.order()
    if na * nb > MAX_TABLE:
        raise ValueError(f"product order {na * nb} exceeds cap {MAX_TABLE}")
    labels = []
    for i in range(na):
        for j in range(nb):
            labels.append(f"({a.labels[i]},{b.labels[j]})")
    mul = []
    for i in range(na):
        for j in range(nb):
            row = []
            for k in range(na):
                for l in range(nb):
                    row.append(a.mul_table[i][k] * nb + b.mul_table[j][l])
            mul.append(row)
    return FiniteTable(tuple(labels), tuple(tuple(r) for r in mul), a.id_index * nb + b.id_index)


def dihedral_table(n: int) -> FiniteTable:
    """Dihedral group of order 2n: (r^i s^j)(r^k s^l) = r^(i+(-1)^j k) s^(j+l)."""
    if n < 1:
        raise ValueError("n must be positive")
    elems = [(i, j) for j in range(2) for i in range(n)]
    index = {x: k for k, x in enumerate(elems)}
    labels = []
    for i, j in elems:
        r = "" if i == 0 else ("r" if i == 1 else f"r{i}")
        s = "s" if j else ""
        labels.append((r + s) or "e")
    mul = []
    for i, j in elems:
        row = []
        for k, l in elems:
            row.append(index[((i + (k if j == 0 else -k)) % n, (j + l) % 2)])
        mul.append(row)
    return FiniteTable(tuple(labels), tuple(tuple(r) for r in mul), index[(0, 0)])


def table_from_closure(generators, op, identity, label_of):
    """FiniteTable of the closure of ``generators`` under ``op``.

    Elements may be any hashable values; labels come from label_of(element,
    witness word), with witnesses built from BFS over the generators.
    Returns (table, elements in index order).
    """
    elems = [identity]
    index = {identity: 0}
    words = {identity: ()}
    queue = deque([identity])
    while queue:
        x = queue.popleft()
        for gi, g in enumerate(generators):
            y = op(x, g)
            if y not in index:
                if len(elems) >= MAX_TABLE:
                    raise ValueError(f"closure exceeds cap {MAX_TABLE}")
                index[y] = len(elems)
                words[y] = words[x] + (gi,)
                elems.append(y)
                queue.append(y)
    mul = [[index[op(x, y)] for y in elems] for x in elems]
    labels = tuple(label_of(x, words[x]) for x in elems)
    return FiniteTable(labels, tuple(tuple(r) for r in mul), 0), elems


def subgroup_table(parent: FiniteTable, gen_indices):
    """Subgroup generated inside ``parent``; returns (table, inclusion list)."""
    table, elems = table_from_closure(
        tuple(sorted(set(gen_indices))),
        lambda x, y: parent.mul_table[x][y],
        parent.id_index,
        lambda x, _w: parent.labels[x],
    )
    return table, elems


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class MembershipAnswer:
    inside: bool
    preimage: object = None


@dataclass(frozen=True)
class Hom:
    """Homomorphism between two group descriptions.

    kind "matrix": free abelian to free abelian, data = row tuples.
    kind "table": finite to finite, data = full element map by index.
    kind "images": generator images (free source of any rank, or free
    abelian source of rank <= 1), data = tuple of codomain elements.
    """

    src: GroupDesc
    dst: GroupDesc
    kind: str
    data: tuple

    def __post_init__(self):
        getattr(self, f"_init_{self.kind}", self._bad_kind)()

    def _bad_kind(self):
        raise UnsupportedHom(f"unknown hom kind {self.kind!r}")

    def _init_matrix(self):
        if not (isinstance(self.src, FreeAbelian) and isinstance(self.dst, FreeAbelian)):
            raise UnsupportedHom("matrix homs need free abelian source and target")
        rows = tuple(tuple(r) for r in self.data)
        if len(rows) != self.dst.rank or any(len(r) != self.src.rank for r in rows):
            raise ShapeMismatch(
                f"matrix must be {self.dst.rank} x {self.src.rank}"
            )
        object.__setattr__(self, "data", rows)
        cols = [[rows[i][j] for i in range(self.dst.rank)] for j in range(self.src.rank)]
        self._attach_lattice(cols)

    def _init_table(self):
        if not (isinstance(self.src, FiniteTable) and isinstance(self.dst, FiniteTable)):
            raise UnsupportedHom("table homs need finite source and target")
        data = tuple(self.data)
        n = self.src.order()
        if len(data) != n:
            raise ShapeMismatch("element map must cover the whole source")
        for y in data:
            self.dst.check(y)
        if data[self.src.id_index] != self.dst.id_index:
            raise ShapeMismatch("identity must map to identity")
        for i in range(n):
            for j in range(n):
                if data[self.src.mul_table[i][j]] != self.dst.mul_table[data[i]][data[j]]:
                    raise ShapeMismatch(f"not multiplicative at ({i},{j})")
        object.__setattr__(self, "data", data)

    def _init_images(self):
        images = tuple(self.data)
        if isinstance(self.src, FiniteTable):
            raise UnsupportedHom("use a full element map for finite sources")
        if isinstance(self.src, FreeAbelian) and self.src.rank > 1:
            raise UnsupportedHom(
                "free abelian sources of rank >= 2 are only supported onto free abelian targets"
            )
        if len(images) != len(self.src.generators()):
            raise ShapeMismatch("one image per source generator required")
        for y in images:
            self.dst.check(y)
        object.__setattr__(self, "data", images)
        if isinstance(self.dst, FreeGroup):
            object.__setattr__(self, "_fold", FoldedSubgroup(self.dst.rank, images))
        elif isinstance(self.dst, FreeAbelian):
            self._attach_lattice([list(v) for v in images])
        else:
            self._attach_finite_image(images)

    def _attach_lattice(self, cols):
        matrix = [[cols[j][i] for j in range(len(cols))] for i in range(self.dst.rank)]
        object.__setattr__(self, "_cols_matrix", matrix)
        object.__setattr__(self, "_snf", quotients.smith_normal_form(matrix) if matrix or cols else None)

    def _lattice_solve(self, y):
        """Solve cols @ x == y through the cached SNF."""
        if self._snf is None:
            return []
        u, d, v = self._snf
        k = len(self._cols_matrix[0]) if self._cols_matrix else 0
        uy = quotients.mat_vec(u, list(y))
        z = [0] * k
        for i in range(self.dst.rank):
            di = d[i][i] if i < k else 0
            if di == 0:
                if uy[i] != 0:
                    return None
            elif uy[i] % di != 0:
                return None
            else:
                z[i] = uy[i] // di
        return quotients.mat_vec(v, z)

    def _attach_finite_image(self, images):
        witness = {self.dst.id_index: ()}
        queue = deque([self.dst.id_index])
        letters = []
        for gi, y in enumerate(images):
            letters.append((y, (gi, 1)))
            letters.append((self.dst.inv_table[y], (gi, -1)))
        while queue:
            x = queue.popleft()
            for y, letter in letters:
                z = self.dst.mul_table[x][y]
                if z not in witness:
                    witness[z] = witness[x] + (letter,)
                    queue.append(z)
        object.__setattr__(self, "_finite_witness", witness)

    # -- constructors -----------------------------------------------------

    @classmethod
    def matrix(cls, src, dst, rows) -> "Hom":
        return cls(src, dst, "matrix", tuple(tuple(r) for r in rows))

    @classmethod
    def table(cls, src, dst, mapping) -> "Hom":
        return cls(src, dst, "table", tuple(mapping))

    @classmethod
    def images(cls, src, dst, images) -> "Hom":
        if isinstance(src, FreeAbelian) and isinstance(dst, FreeAbelian):
            cols = [list(v) for v in images]
            rows = [[cols[j][i] for j in range(len(cols))] for i in range(dst.rank)]
            return cls.matrix(src, dst, rows)
        if isinstance(src, FiniteTable) and isinstance(dst, FiniteTable):
            return cls.from_generator_images(src, dst, images)
        return cls(src, dst, "images", tuple(images))

    @classmethod
    def from_generator_images(cls, src: FiniteTable, dst: FiniteTable, images) -> "Hom":
        """Extend images of the chosen generating set, or raise ShapeMismatch
        when no homomorphism extends them."""
        gens = src.generators()
        if len(images) != len(gens):
            raise ShapeMismatch("one image per source generator required")
        mapping = []
        for x in src.elements():
            y = dst.id_index
            for gi, sign in src.spell(x):
                img = images[gi] if sign > 0 else dst.inv_table[images[gi]]
                y = dst.mul_table[y][img]
            mapping.append(y)
        return cls.table(src, dst, mapping)

    @classmethod
    def identity(cls, g: GroupDesc) -> "Hom":
        if isinstance(g, FreeAbelian):
            return cls.matrix(g, g, quotients.mat_identity(g.rank))
        if isinstance(g, FiniteTable):
            return cls.table(g, g, list(g.elements()))
        return cls(g, g, "images", g.generators())

    @classmethod
    def trivial(cls, src: GroupDesc, dst: GroupDesc) -> "Hom":
        """The constant-identity hom, for the shapes that support it."""
        if isinstance(src, FreeAbelian) and isinstance(dst, FreeAbelian):
            return cls.matrix(src, dst, [[0] * src.rank for _ in range(dst.rank)])
        if isinstance(src, FiniteTable) and isinstance(dst, FiniteTable):
            return cls.table(src, dst, [dst.id_index] * src.order())
        return cls(src, dst, "images", tuple(dst.identity() for _ in src.generators()))

    def apply(self, x):
        self.src.check(x)
        if self.kind == "matrix":
            return tuple(quotients.mat_vec(list(map(list, self.data)), list(x)))
        if self.kind == "table":
            return self.data[x]
        if isinstance(self.src, FreeAbelian):
            if self.src.rank == 0:
                return self.dst.identity()
            return self.dst.power(self.data[0], x[0])
        acc = self.dst.identity()
        for idx, sign in self.src.spell(x):
            img = self.data[idx] if sign > 0 else self.dst.inv(self.data[idx])
            acc = self.dst.mul(acc, img)
        return acc


def hom_apply(h: Hom, x):
    return h.apply(x)


def _src_is_trivial(h: Hom) -> bool:
    return h.src.order() == 1


def hom_is_injective(h: Hom) -> bool:
    """Kernel triviality, decided per class pair."""
    if _src_is_trivial(h):
        return True
    if h.kind == "matrix":
        _, d, _ = h._snf
        nonzero = sum(1 for i in range(min(h.dst.rank, h.src.rank)) if d[i][i] != 0)
        return nonzero == h.src.rank
    if h.kind == "table":
        return sum(1 for y in h.data if y == h.dst.id_index) == 1
    # images kind
    if isinstance(h.dst, FreeGroup):
        if isinstance(h.src, FreeAbelian):
            return h.data[0] != ()
        if any(w == () for w in h.data):
            return False
        return h._fold.rank() == h.src.rank
    if isinstance(h.dst, FreeAbelian):
        if isinstance(h.src, FreeAbelian):
            return h.data[0] != h.dst.identity()
        if h.src.rank >= 2:
            return False  # a commutator of distinct letters dies
        return h.data[0] != h.dst.identity()
    # finite target, infinite source
    return False


def hom_member(h: Hom, y) -> MembershipAnswer:
    """Decide y in im(h); on success the preimage maps onto y exactly."""
    h.dst.check(y)
    if isinstance(h.dst, FreeAbelian) and h.dst.rank == 0:
        return MembershipAnswer(True, h.src.identity())
    if h.kind == "matrix":
        x = h._lattice_solve(y)
        return MembershipAnswer(False) if x is None else MembershipAnswer(True, tuple(x))
    if h.kind == "table":
        for i, img in enumerate(h.data):
            if img == y:
                return MembershipAnswer(True, i)
        return MembershipAnswer(False)
    if isinstance(h.dst, FreeGroup):
        w = h._fold.preimage(y)
        if w is None:
            return MembershipAnswer(False)
        return MembershipAnswer(True, _letters_to_source_element(h, w))
    if isinstance(h.dst, FreeAbelian):
        x = h._lattice_solve(y)
        if x is None:
            return MembershipAnswer(False)
        if isinstance(h.src, FreeAbelian):
            return MembershipAnswer(True, tuple(x))
        word = []
        for i, k in enumerate(x):
            word.extend([(i + 1) * (1 if k > 0 else -1)] * abs(k))
        return MembershipAnswer(True, tuple(word))
    # finite target
    w = h._finite_witness.get(y)
    if w is None:
        return MembershipAnswer(False)
    return MembershipAnswer(True, _letters_to_source_element(h, [(gi + 1) * s for gi, s in w]))


def _letters_to_source_element(h: Hom, letters):
    """Package a generator-letter word as a source element."""
    if isinstance(h.src, FreeGroup):
        return free_reduce(tuple(letters))
    # free abelian rank <= 1 source
    if h.src.rank == 0:
        return ()
    return (sum(1 if s > 0 else -1 for s in letters),)


def cogenerator(h: Hom):
    """An element of the target outside im(h); None exactly when surjective."""
    if h.kind == "table" or isinstance(h.dst, FiniteTable):
        image = set(h.data) if h.kind == "table" else set(h._finite_witness)
        for y in h.dst.elements():
            if y not in image:
                return y
        return None
    if isinstance(h.dst, FreeGroup):
        return h._fold.cogenerator()
    # free abelian target: use the SNF of the image lattice
    if h.dst.rank == 0:
        return None
    if h._snf is None or not h._cols_matrix or not h._cols_matrix[0]:
        u_inv_col = [1 if i == 0 else 0 for i in range(h.dst.rank)]
        return tuple(u_inv_col)
    u, d, _ = h._snf
    k = len(h._cols_matrix[0])
    pick = None
    for i in range(h.dst.rank):
        di = d[i][i] if i < k else 0
        if di == 0 or di >= 2:
            pick = i
            break
    if pick is None:
        return None
    u_inv = quotients.mat_int_inverse(u)
    return tuple(u_inv[r][pick] for r in range(h.dst.rank))


def is_surjective(h: Hom) -> bool:
    return cogenerator(h) is None


def is_isomorphism(h: Hom) -> bool:
    return hom_is_injective(h) and is_surjective(h)


def compose(outer: Hom, inner: Hom) -> Hom:
    """outer after inner."""
    if inner.dst != outer.src:
        raise ShapeMismatch("homs do not compose: middle groups differ")
    src, dst = inner.src, outer.dst
    if isinstance(src, FiniteTable):
        if not isinstance(dst, FiniteTable):
            raise UnsupportedHom("finite source composites must land in a finite group")
        return Hom.table(src, dst, [outer.apply(y) for y in inner.data])
    images = [outer.apply(inner.apply(x)) for x in src.generators()]
    return Hom.images(src, dst, images)


def inverse(h: Hom) -> Hom:
    """Inverse of an isomorphism (checked)."""
    if not is_isomorphism(h):
        raise ShapeMismatch("hom is not an isomorphism")
    if h.kind == "matrix":
        return Hom.matrix(h.dst, h.src, quotients.mat_int_inverse(list(map(list, h.data))))
    if h.kind == "table":
        back = [None] * h.dst.order()
        for i, y in enumerate(h.data):
            back[y] = i
        return Hom.table(h.dst, h.src, back)
    images = []
    for y in h.dst.generators():
        answer = hom_member(h, y)
        assert answer.inside, "surjective hom missing a generator preimage"
        images.append(answer.preimage)
    return Hom.images(h.dst, h.src, images)


# ---------------------------------------------------------------------------
# ranks


def group_rank(g: GroupDesc) -> int:
    """Minimal number of generators."""
    if isinstance(g, (FreeAbelian, FreeGroup)):
        return g.rank
    return len(_ft_generating_set(g))


def geometric_rank_class(g: GroupDesc) -> int:
    """Largest n with Z^n embedding, by closed form per class."""
    if isinstance(g, FreeAbelian):
        return g.rank
    if isinstance(g, FiniteTable):
        return 0
    return 1 if g.rank >= 1 else 0


# ---------------------------------------------------------------------------
# element text forms (shared by the CLI word grammar and the file format)


def format_element(g: GroupDesc, x) -> str:
    g.check(x)
    if isinstance(g, FreeAbelian):
        return "[" + ",".join(str(a) for a in x) + "]"
    if isinstance(g, FiniteTable):
        return f"#{x}"
    if not x:
        return "1"
    return ".".join(
        g.names[abs(s) - 1] + ("^-1" if s < 0 else "") for s in x
    )


def parse_free_word(g: FreeGroup, text: str, sep: str = None):
    """Parse a free-group word; letters split on whitespace or '.'."""
    text = text.strip()
    if text in ("", "1"):
        return ()
    parts = text.split(sep) if sep else text.replace(".", " ").split()
    index = {name: i + 1 for i, name in enumerate(g.names)}
    word = []
    for part in parts:
        sign = 1
        if part.endswith("^-1"):
            sign = -1
            part = part[: -len("^-1")]
        if part not in index:
            raise ShapeMismatch(f"unknown free-group letter {part!r}")
        word.append(sign * index[part])
    return free_reduce(tuple(word))


def parse_element(g: GroupDesc, text: str):
    text = text.strip()
    if isinstance(g, FreeAbelian):
        if not (text.startswith("[") and text.endswith("]")):
            raise ShapeMismatch(f"free abelian element must look like [k1,...]: {text!r}")
        inner = text[1:-1].strip()
        vec = tuple(int(p) for p in inner.split(",")) if inner else ()
        g.check(vec)
        return vec
    if isinstance(g, FiniteTable):
        if text.startswith("#"):
            idx = int(text[1:])
        elif text in g.labels:
            idx = g.labels.index(text)
        else:
            raise ShapeMismatch(f"unknown table element {text!r}")
        g.check(idx)
        return idx
    return parse_free_word(g, text)
