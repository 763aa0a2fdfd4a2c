"""The three computable group classes (free abelian, finite multiplication
table, free) with element arithmetic, homomorphisms between them, and the
decidability services every other module consumes: injectivity, image
membership with preimages, cogenerators, and rank.

Element encodings are bare Python values, dispatched through the group:
free abelian elements are int tuples, finite-table elements are indices,
free-group elements are tuples of signed 1-based letter numbers.  The
checked ``mul``, ``inv`` and ``power`` are defined once, on ``GroupDesc``.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import add, getitem, itemgetter, mul, neg

from . import quotients
from .errors import ShapeMismatch, UnsupportedHom
from .folding import FoldedSubgroup, free_exponents, free_inv, free_mul, free_reduce

MAX_TABLE = 4096


# ---------------------------------------------------------------------------
# group descriptions


class GroupDesc:
    """Common surface of the three group classes.

    A class supplies ``check`` and two unchecked cores, the functions
    ``_mul`` ((x, y) -> xy) and ``_inv`` (x -> x^-1), which trust their
    arguments to be elements.  Every checked operation is the check plus
    the cores, here and only here; code that holds elements it has
    already checked (the pinch kernel, hom images) calls the cores.

    Each class also supplies ``identity()``; ``check(x)``, which raises
    ShapeMismatch unless x is an element; ``generators()`` and
    ``generator_names()``; ``spell(x)``, x as a reduced free word over
    ``generators()`` (+i the i-th generator, -i its inverse); and
    ``order()``, None when the group is infinite.
    """

    def mul(self, x, y):
        self.check(x), self.check(y)
        return self._mul(x, y)

    def inv(self, x):
        self.check(x)
        return self._inv(x)

    def is_identity(self, x):
        self.check(x)
        return x == self.identity()

    def power(self, x, k: int):
        """x^k: x is checked once, then squared with the unchecked product."""
        self.check(x)
        product = self._mul
        if k < 0:
            x, k = self._inv(x), -k
        acc = self.identity()
        while k:
            if k & 1:
                acc = product(acc, x)
            x = product(x, x)
            k >>= 1
        return acc


@dataclass(frozen=True)
class _RankedGroup(GroupDesc):
    """Fields shared by the two infinite classes: a rank and one name per
    generator (default x1, x2, ...)."""

    rank: int
    names: tuple = field(default=None, compare=False)

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        names = self.names or tuple(f"x{i + 1}" for i in range(self.rank))
        if len(names) != self.rank:
            raise ValueError("name count != rank")
        object.__setattr__(self, "names", tuple(names))

    def generator_names(self):
        return self.names

    def order(self):
        return 1 if self.rank == 0 else None


class FreeAbelian(_RankedGroup):
    """Z^rank, its elements int tuples of length ``rank``.

    The product is compiled per group from its rank, as a table's is from
    its rows: at rank 1 it adds the one coordinate, the commonest vertex
    group of a graph and the one a pinch cascade on the torus multiplies
    in; every other rank adds coordinate-wise through ``map``."""

    def identity(self):
        return (0,) * self.rank

    @property
    def _mul(self):
        return _add_one if self.rank == 1 else _add_vectors

    _inv = staticmethod(lambda x: tuple(map(neg, x)))

    def check(self, x):
        if not (isinstance(x, tuple) and len(x) == self.rank and all(isinstance(a, int) for a in x)):
            raise ShapeMismatch(f"{x!r} is not a Z^{self.rank} element")

    def generators(self):
        return tuple(tuple(1 if i == j else 0 for j in range(self.rank)) for i in range(self.rank))

    def spell(self, x):
        self.check(x)
        return _exponent_word(x)


def _add_vectors(x, y):
    return tuple(map(add, x, y))


def _add_one(x, y):
    return (x[0] + y[0],)


def _exponent_word(vec) -> tuple:
    """The free word x1^k1 x2^k2 ... of an exponent vector (k1, k2, ...)."""
    return tuple(s for i, k in enumerate(vec, 1) for s in ((i if k > 0 else -i),) * abs(k))


class FreeGroup(_RankedGroup):
    def identity(self):
        return ()

    _mul = staticmethod(free_mul)
    _inv = staticmethod(free_inv)

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

    def spell(self, x):
        self.check(x)
        return x


@dataclass(frozen=True)
class FiniteTable(GroupDesc):
    """A finite group by its multiplication table over the indices 0..n-1.

    The constructor checks every group axiom, so each ``FiniteTable`` is a
    group: the shape, the entry range, the identity row and column and
    two-sided inverses, then associativity by Light's test over the greedy
    cover S (``_cover``): (x s) y = x (s y) for every s in S and all
    x, y, one row comparison per (x, s), so O(n^2 |S|) reads.  The middles
    a with (x a) y = x (a y) for all x, y are closed under products and
    every element is a left-nested product over S, so that suffices.  Only
    when it fails does the cubic scan run, to name the first failing
    triple (Clifford and Preston, *The Algebraic Theory of Semigroups* I,
    1961, section 1.2).  ``_derived`` is the one unchecked path, for
    tables derived from checked ones.

    A table keeps what it derives from its rows, and drops it with
    itself: the cover, which the constructor computes and table homs
    read, and the spellings (``_spellings``).  The generating set is the
    exception: equal tables share one search (``_ft_generating_set``).
    """

    labels: tuple = field(compare=False)
    mul_table: tuple
    id_index: int
    inv_table: tuple = field(init=False, compare=False, repr=False)
    # the table's hash, computed once: the generating-set memo is keyed by
    # equal tables, and rehashing an n x n table on every lookup is O(n^2)
    _hash: int = field(init=False, compare=False, repr=False)

    def __hash__(self):
        return self._hash

    def __post_init__(self):
        n = len(self.mul_table)
        if n == 0:
            raise ValueError("empty table")
        _check_table_size(n)
        object.__setattr__(self, "labels", tuple(map(str, self.labels)))
        object.__setattr__(self, "mul_table", tuple(tuple(row) for row in self.mul_table))
        if len(self.labels) != n or any(len(row) != n for row in self.mul_table):
            raise ValueError("table shape mismatch")
        t = self.mul_table
        if min(map(min, t)) < 0 or max(map(max, t)) >= n:
            raise ValueError("table entry out of range")
        if not (0 <= self.id_index < n):
            raise ValueError("identity index out of range")
        e = self.id_index
        indices = tuple(range(n))
        if t[e] != indices or tuple(map(itemgetter(e), t)) != indices:
            raise ValueError("identity row/column violated")
        inv = []
        for i, row in enumerate(t):
            # exactly one right inverse, and it is a left inverse too
            if row.count(e) != 1 or t[row.index(e)][i] != e:
                raise ValueError(f"element {i} lacks a two-sided inverse")
            inv.append(row.index(e))
        self._seal(tuple(inv))
        # Light's test over the table's own cover, which its homs read again
        for s in self._cover:
            middle = _picker(t[s])  # row x gathered at row s: y -> x (s y)
            if any(t[xs] != middle(tx) for tx, xs in zip(t, map(itemgetter(s), t))):
                break
        else:
            return
        for a in indices:
            ta = t[a]
            for b in indices:
                tab = t[ta[b]]
                tb = t[b]
                for c in indices:
                    if tab[c] != ta[tb[c]]:
                        raise ValueError(f"associativity fails at ({a},{b},{c})")

    def _seal(self, inv_table: tuple) -> None:
        object.__setattr__(self, "inv_table", inv_table)
        object.__setattr__(self, "_hash", hash((self.mul_table, self.id_index)))

    @classmethod
    def _derived(cls, labels: tuple, mul_table: tuple, id_index: int, inv_table: tuple) -> "FiniteTable":
        """A table derived from tables already checked (a subgroup, a direct
        product), built with no check: ``labels`` a tuple of str,
        ``mul_table`` a tuple of tuples, ``inv_table`` the inverses.  Only
        this module builds such tables, and only from checked ones."""
        g = object.__new__(cls)
        object.__setattr__(g, "labels", labels)
        object.__setattr__(g, "mul_table", mul_table)
        object.__setattr__(g, "id_index", id_index)
        g._seal(inv_table)
        return g

    def identity(self):
        return self.id_index

    @property
    def _mul(self):
        rows = self.mul_table  # a closure over the rows: one lookup fewer per product
        return lambda x, y: rows[x][y]

    @property
    def _inv(self):
        return self.inv_table.__getitem__

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
        return self._spellings[x]

    @cached_property
    def _cover(self) -> tuple:
        """A greedy cover S, in increasing order: from S empty and the reached
        set {e}, the least element not yet reached joins S, and the reached set
        is closed under right multiplication by S.  No inverse is read, so
        every element is a left-nested product ((e s1) s2) ... over S, even in
        a table the constructor has not yet found associative.  O(n |S|)
        reads: S = (1,) on a cyclic table, and |S| = k on (Z/2)^k."""
        mul = self.mul_table
        reached = [self.id_index]
        seen = set(reached)
        cover = []
        for s in range(len(mul)):
            if s in seen:
                continue
            cover.append(s)
            # what was reached is closed under the earlier elements, so it meets
            # only s; each element reached from here on meets all of S
            new = len(reached)
            for x in reached[:new]:
                y = mul[x][s]
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
            while new < len(reached):
                row = mul[reached[new]]
                new += 1
                for t in cover:
                    y = row[t]
                    if y not in seen:
                        seen.add(y)
                        reached.append(y)
        return tuple(cover)

    @cached_property
    def _spellings(self) -> tuple:
        """Shortest word over the chosen generators for every element."""
        words = _ft_words(self, _ft_generating_set(self))
        if len(words) != len(self.mul_table):
            raise AssertionError("generating set does not generate")
        return tuple(words[i] for i in range(len(self.mul_table)))


def _ft_closure(table: FiniteTable, gens: tuple, seed: tuple | None = None) -> tuple:
    """Subgroup generated by gens and the closed subgroup ``seed`` (a
    closure as this returns it, default trivial), identity first.

    The seed's elements come first; then, in BFS discovery order, each
    element met outside the result so far brings its whole left coset of
    the seed.  With the trivial seed that is plain BFS discovery order.
    """
    mul = table.mul_table
    seed = seed or (table.id_index,)
    order = list(seed)
    seen = set(order)
    step = []
    for g in gens:
        step.extend((g, table.inv_table[g]))
    for x in order:
        row = mul[x]
        for g in step:
            y = row[g]
            if y not in seen:
                coset = [mul[y][h] for h in seed]
                seen.update(coset)
                order.extend(coset)
    return tuple(order)


def _ft_span(table: FiniteTable, elements, seed: tuple | None = None) -> tuple:
    """Subgroup generated by ``elements`` and the closed subgroup ``seed``:
    one seeded closure per element outside the span so far."""
    span = seed or (table.id_index,)
    inside = set(span)
    for x in elements:
        if x not in inside:
            span = _ft_closure(table, (x,), span)
            inside = set(span)
    return span


def _ft_elementary_quotients(table: FiniteTable) -> list:
    """(p, r_p, N_p) for each prime p | n: N_p = G'G^p as a closure and
    r_p = log_p [G : N_p], so G/N_p = (Z/p)^r_p is the largest elementary
    abelian p-quotient.  Every r_p is at most d(G), and the largest equals
    it on abelian tables and on p-groups (Burnside basis theorem: G'G^p is
    the Frattini subgroup of a p-group).

    G' is spanned by the commutators [s, y] for s in the cover S
    (``FiniteTable._cover``) and y in G, n |S| reads: that subgroup is normal, as
    [s, y]^g = [s, g]^-1 [s, yg], and it holds every [x, y], as
    [xs, y] = [x, y]^s [s, y]."""
    mul, inv = table.mul_table, table.inv_table
    n = len(mul)
    commutators = set()
    for x in table._cover:
        # x^-1 y^-1 x y for every y, one row at a time
        left = map(mul[inv[x]].__getitem__, inv)
        commutators.update(map(getitem, map(mul.__getitem__, left), mul[x]))
    derived = _ft_span(table, commutators)
    quotients = []
    for p in range(2, n + 1):
        if n % p or any(p % q == 0 for q in range(2, p)):
            continue
        # every x^p, by square and multiply over the whole table at once
        powers, base, k = [table.id_index] * n, list(range(n)), p
        while k:
            if k & 1:
                powers = list(map(getitem, map(mul.__getitem__, powers), base))
            base = list(map(getitem, map(mul.__getitem__, base), base))
            k >>= 1
        frattini = _ft_span(table, powers, derived)
        index, rank = n // len(frattini), 0
        while index > 1:
            index //= p
            rank += 1
        quotients.append((p, rank, frattini))
    return quotients


def _ft_coset_labels(table: FiniteTable, normal: tuple) -> list:
    """label[x] = the number of x's coset of the normal subgroup ``normal``,
    the cosets numbered in order of their least element."""
    mul = table.mul_table
    label = [None] * len(mul)
    count = 0
    for x, row in enumerate(mul):
        if label[x] is None:
            for h in normal:
                label[row[h]] = count
            count += 1
    return label


@lru_cache(maxsize=None)
def _ft_generating_set(table: FiniteTable) -> tuple:
    """First minimal generating subset: of the least size, the first in
    ``itertools.combinations`` order of the non-identity indices.

    Size 1 tries each element's cyclic closure.  Past it, the size starts at
    the rank bound max_p r_p (at most d(G)) and the subsets of each size are
    walked depth first in that order, each prefix's closure extended by one
    seeded BFS per element.  Three kinds of prefix are skipped with every
    subset through them:
    - one whose last element lies in the closure of the rest: at a size
      k <= d(G) its subsets generate what k - 1 elements generate, so none
      is the answer;
    - one whose closure equals an earlier sibling's (same prefix, smaller
      last element): each of its subsets generates what the sibling's
      subset with the same tail generates, and that one was tried first;
    - one whose image in some elementary abelian quotient G/N_p =
      (Z/p)^r_p (``_ft_elementary_quotients``) spans a subspace of
      dimension d with r_p - d greater than the number of elements still to
      add: each adds at most one dimension, so no subset through it maps
      onto G/N_p, and none generates G.  d is read as log_p of the number
      of cosets of N_p that the prefix's closure meets.
    None of the three skips a generating subset, so the first one in
    combinations order is found, as by the plain walk.

    This is the package's one module-level memo, and it keeps every table
    it has searched alive for the life of the process.  It is shared by
    equal tables, where the cover and spellings are kept per table:
    callers that take the rank of subgroup images build tables that die
    with the call, and equal images recur.  Kept per table instead, the
    benchmark's ``rank_sweep`` ran 28.2k ops/s where the shared memo ran
    58.6k (2 vCPUs).
    """
    n = len(table.mul_table)
    if n == 1:
        return ()
    candidates = [i for i in range(n) if i != table.id_index]
    for g in candidates:
        if len(_ft_closure(table, (g,))) == n:
            return (g,)
    quotients = _ft_elementary_quotients(table)
    # a prefix with at least one element still to add misses a quotient of
    # rank r_p only if r_p >= 2
    prunes = [(p, rank, _ft_coset_labels(table, normal)) for p, rank, normal in quotients if rank >= 2]
    bound = max(rank for _, rank, _ in quotients)
    for k in range(max(2, bound), n):
        found = _ft_first_extension(table, candidates, (), (table.id_index,), 0, k, prunes)
        if found:
            return found
    raise AssertionError("no generating set found")


def _ft_first_extension(table, candidates, prefix, closure, start, k, prunes):
    """First k-subset, in combinations order, that extends ``prefix`` (with
    closure ``closure``) by ``candidates[start:]`` and generates the table;
    None when none does.  ``prunes`` holds (p, r_p, coset labels of N_p)
    for each elementary abelian quotient of rank at least 2."""
    n = len(table.mul_table)
    inside = set(closure)
    last = len(prefix) + 1 == k
    # the least number of cosets of N_p a grown prefix's closure must meet:
    # p^(r_p - elements still to add), when that exponent is positive
    least = [(p ** (rank - (k - len(prefix) - 1)), labels.__getitem__)
             for p, rank, labels in prunes if rank > k - len(prefix) - 1]
    met = set()
    for i in range(start, len(candidates) - (k - len(prefix)) + 1):
        g = candidates[i]
        if g in inside:
            continue
        grown = _ft_closure(table, (g,), closure)
        if last:
            if len(grown) == n:
                return prefix + (g,)
            continue
        key = frozenset(grown)
        if key in met:
            continue
        met.add(key)
        if any(len(set(map(label, grown))) < cosets for cosets, label in least):
            continue
        found = _ft_first_extension(table, candidates, prefix + (g,), grown, i + 1, k, prunes)
        if found:
            return found
    return None


def _ft_words(table: FiniteTable, gens) -> dict:
    """{element: shortest free word over gens} for the subgroup gens
    generate, by BFS; letters are tried in the order 1, -1, 2, -2, ..."""
    letters = []
    for i, g in enumerate(gens, 1):
        letters.append((g, i))
        letters.append((table.inv_table[g], -i))
    words = {table.id_index: ()}
    queue = deque([table.id_index])
    while queue:
        x = queue.popleft()
        for g, letter in letters:
            y = table.mul_table[x][g]
            if y not in words:
                words[y] = words[x] + (letter,)
                queue.append(y)
    return words


def _picker(indices):
    """``pick(seq) == tuple(seq[i] for i in indices)``, gathered in one C
    call (``itemgetter`` of one index returns the bare item)."""
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


# -- table builders ----------------------------------------------------------


def _check_table_size(n: int) -> None:
    if n > MAX_TABLE:
        raise ValueError(f"table size {n} exceeds cap {MAX_TABLE}")


def cyclic_table(n: int, letter: str = "a") -> FiniteTable:
    if n < 1:
        raise ValueError("order must be positive")
    _check_table_size(n)
    labels = ["e"] + [letter if i == 1 else f"{letter}{i}" for i in range(1, n)]
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteTable(labels, mul, 0)


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
            mul.append(tuple(row))
    inv = tuple(a.inv_table[i] * nb + b.inv_table[j] for i in range(na) for j in range(nb))
    return FiniteTable._derived(tuple(labels), tuple(mul), a.id_index * nb + b.id_index, inv)


def dihedral_table(n: int) -> FiniteTable:
    """Dihedral group of order 2n: (r^i s^j)(r^k s^l) = r^(i+(-1)^j k) s^(j+l)."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_table_size(2 * n)
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
    return FiniteTable(labels, mul, index[(0, 0)])


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
    return FiniteTable(labels, mul, 0), elems


def subgroup_table(parent: FiniteTable, gen_indices):
    """Subgroup generated inside ``parent``; returns (table, inclusion list).

    Elements are numbered in BFS discovery order over the sorted distinct
    generators, as ``table_from_closure`` numbers them, and keep their
    parent labels; each row and the inverses are read off the parent's in
    one pass, and the table is not checked again."""
    gens = sorted(set(gen_indices))
    mul = parent.mul_table
    elems = [parent.id_index]
    index = {parent.id_index: 0}
    for x in elems:
        row = mul[x]
        for g in gens:
            y = row[g]
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
    pick = _picker(elems)
    sub = tuple(_picker(pick(mul[x]))(index) for x in elems)
    inv = _picker(pick(parent.inv_table))(index)
    return FiniteTable._derived(pick(parent.labels), sub, 0, inv), elems


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class MembershipAnswer:
    inside: bool
    preimage: object = None


@dataclass(frozen=True)
class Hom:
    """Homomorphism between two group descriptions.

    The form of ``data`` follows from the source class: a table hom (a
    finite source, so a finite target) is the full element map by index;
    any other source (free, or free abelian of rank <= 1 or onto a free
    abelian target) has one codomain element per source generator.
    ``Hom.matrix`` takes a free abelian map as dst.rank rows of src.rank
    ints, the file format's form, and stores its columns.

    The image structure is derived on first use and kept: the image
    matrix (``_matrix``) and the certified Smith normal form of its
    lattice (``_snf``) for free abelian targets, the Stallings-folded image
    subgroup (``_fold``) for free targets, shortest words over the images
    (``_witness``) for finite targets of infinite sources, and least
    preimages (``_first_preimage``) for table homs.

    From these each hom compiles, once, one unchecked core per direction
    for its class pair: ``_image(x)``, the image of a source element, and
    ``_preimage(y)``, a source element mapping onto y or None.  They check
    nothing: ``apply`` and ``hom_member`` check at the boundary and call
    them, and the pinch kernel of ``words`` calls them on elements checked
    at a word's entry.  A free abelian target solves through the Smith
    form's compiled solver (``SmithForm.solver``).  A free target reads
    preimages off the folded graph and reduces the concatenated generator
    images once per image, so both of its cores are linear in the word.
    Every hom derived from an element map (identities, trivial homs,
    composites, inverses) is built by ``Hom.of``.
    """

    src: GroupDesc
    dst: GroupDesc
    data: tuple

    def __post_init__(self):
        data = tuple(self.data)
        if isinstance(self.src, FiniteTable):
            if not isinstance(self.dst, FiniteTable):
                raise UnsupportedHom("use a full element map for finite sources")
            n = self.src.order()
            if len(data) != n:
                raise ShapeMismatch("element map must cover the whole source")
            # the range in one C pass; the per-element check names an offender
            if not ({*map(type, data)} == {int} and min(data) >= 0 and max(data) < self.dst.order()):
                for y in data:
                    self.dst.check(y)
            if data[self.src.id_index] != self.dst.id_index:
                raise ShapeMismatch("identity must map to identity")
            # row i: data[i * j] against data[i] * data[j] for every j at once,
            # scanning a row for its first bad j only once it fails.  Rows up
            # to the last element of the source's cover S suffice: if
            # h(s x) = h(s) h(x) for s in S, then h(y x) = h(y) h(x) for every
            # y, by induction on y's left-nested word over S (a FiniteTable
            # is a group, so associative).  A map that is not a hom fails some
            # row of S, so the first failing (i, j) in row-major order lies
            # in the rows scanned.
            cover = self.src._cover
            image = _picker(data)
            for i, row in enumerate(self.src.mul_table[: cover[-1] + 1] if cover else ()):
                target = self.dst.mul_table[data[i]]
                if _picker(row)(data) != image(target):
                    j = next(j for j in range(n) if data[row[j]] != target[data[j]])
                    raise ShapeMismatch(f"not multiplicative at ({i},{j})")
        else:
            if isinstance(self.src, FreeAbelian) and self.src.rank > 1 and not isinstance(
                self.dst, FreeAbelian
            ):
                raise UnsupportedHom(
                    "free abelian sources of rank >= 2 are only supported onto free abelian targets"
                )
            if len(data) != self.src.rank:
                raise ShapeMismatch("one image per source generator required")
            for y in data:
                self.dst.check(y)
        object.__setattr__(self, "data", data)

    @cached_property
    def _matrix(self) -> tuple:
        """Free abelian targets: the rows of the matrix whose columns are
        the generator images."""
        return tuple(tuple(y[i] for y in self.data) for i in range(self.dst.rank))

    @cached_property
    def _snf(self) -> quotients.SmithForm:
        """Free abelian targets: the certified Smith form of ``_matrix``."""
        return quotients.SmithForm(self._matrix)

    @cached_property
    def _fold(self) -> FoldedSubgroup:
        """Free targets: the Stallings-folded subgroup the images generate."""
        return FoldedSubgroup(self.dst.rank, self.data)

    @cached_property
    def _witness(self) -> dict:
        """Finite targets of image homs: {image element: shortest word over
        the generator images}."""
        return _ft_words(self.dst, self.data)

    @cached_property
    def _first_preimage(self) -> dict:
        """Table homs: {image: least source index mapping to it}."""
        first = {}
        for i, y in enumerate(self.data):
            first.setdefault(y, i)
        return first

    @cached_property
    def _image(self):
        """The image core: x -> h(x), for x already known to lie in ``src``."""
        src, dst, data = self.src, self.dst, self.data
        if isinstance(src, FiniteTable):
            return data.__getitem__
        if isinstance(dst, FreeAbelian):
            rows = self._matrix
            if isinstance(src, FreeAbelian):
                return lambda x: tuple([sum(map(mul, row, x)) for row in rows])

            def image(x):
                exponents = free_exponents(x, src.rank)
                return tuple([sum(map(mul, row, exponents)) for row in rows])

            return image
        if isinstance(src, FreeAbelian) and src.rank and isinstance(dst, FiniteTable):
            # Z onto a finite target: by repeated squaring, not letter by letter
            return lambda x: dst.power(data[0], x[0])
        inv = dst._inv
        images = {s * i: y if s > 0 else inv(y) for i, y in enumerate(data, 1) for s in (1, -1)}
        if isinstance(dst, FreeGroup):

            def image(x):
                return free_reduce([s for letter in x for s in images[letter]])

        else:  # finite target
            table, identity = dst.mul_table, dst.id_index

            def image(x):
                acc = identity
                for s in x:
                    acc = table[acc][images[s]]
                return acc

        if isinstance(src, FreeAbelian):  # rank <= 1: x is the exponent word x1^k
            return lambda x: image(_exponent_word(x))
        return image

    @cached_property
    def _preimage(self):
        """The membership core: y -> a source element mapping onto y, or
        None when y is outside the image, for y already known to lie in
        ``dst``."""
        src, dst = self.src, self.dst
        if isinstance(src, FiniteTable):
            return self._first_preimage.get
        if isinstance(dst, FreeAbelian):
            solve = self._snf.solver()
            if isinstance(src, FreeAbelian):
                return solve

            def preimage(y):
                x = solve(y)
                return None if x is None else _exponent_word(x)

            return preimage
        # words over the generator images: folded preimages are freely
        # reduced, and so are shortest words
        words = self._fold.preimage if isinstance(dst, FreeGroup) else self._witness.get
        if isinstance(src, FreeGroup):
            return words

        def preimage(y):  # a free abelian source of rank <= 1
            w = words(y)
            return None if w is None else tuple(free_exponents(w, src.rank))

        return preimage

    # -- constructors -----------------------------------------------------

    @classmethod
    def matrix(cls, src, dst, rows) -> "Hom":
        """Free abelian to free abelian from dst.rank rows of src.rank ints;
        column j is the image of generator j."""
        if not (isinstance(src, FreeAbelian) and isinstance(dst, FreeAbelian)):
            raise UnsupportedHom("matrix homs need free abelian source and target")
        rows = [tuple(r) for r in rows]
        if len(rows) != dst.rank or any(len(r) != src.rank for r in rows):
            raise ShapeMismatch(f"matrix must be {dst.rank} x {src.rank}")
        for a in itertools.chain.from_iterable(rows):
            if not isinstance(a, int):
                raise ShapeMismatch(f"matrix entry {a!r} is not an integer")
        return cls(src, dst, [tuple(r[j] for r in rows) for j in range(src.rank)])

    @classmethod
    def table(cls, src, dst, mapping) -> "Hom":
        if not (isinstance(src, FiniteTable) and isinstance(dst, FiniteTable)):
            raise UnsupportedHom("table homs need finite source and target")
        return cls(src, dst, mapping)

    @classmethod
    def images(cls, src, dst, images) -> "Hom":
        if isinstance(src, FiniteTable) and isinstance(dst, FiniteTable):
            return cls.from_generator_images(src, dst, images)
        return cls(src, dst, images)

    @classmethod
    def from_generator_images(cls, src: FiniteTable, dst: FiniteTable, images) -> "Hom":
        """Extend images of the chosen generating set, or raise ShapeMismatch
        when no homomorphism extends them."""
        if len(images) != len(src.generators()):
            raise ShapeMismatch("one image per source generator required")
        for y in images:
            dst.check(y)
        table, inv = dst.mul_table, dst.inv_table
        mapping = []
        for word in src._spellings:
            y = dst.id_index
            for s in word:
                y = table[y][images[s - 1] if s > 0 else inv[images[-s - 1]]]
            mapping.append(y)
        return cls.table(src, dst, mapping)

    @classmethod
    def of(cls, src: GroupDesc, dst: GroupDesc, f) -> "Hom":
        """The hom that agrees with the element map f: f is read on every
        element of a finite source and on the generators of any other."""
        domain = src.elements() if isinstance(src, FiniteTable) else src.generators()
        return cls(src, dst, [f(x) for x in domain])

    @classmethod
    def identity(cls, g: GroupDesc) -> "Hom":
        return cls.of(g, g, lambda x: x)

    @classmethod
    def trivial(cls, src: GroupDesc, dst: GroupDesc) -> "Hom":
        """The constant-identity hom, for the shapes that support it."""
        return cls.of(src, dst, lambda x: dst.identity())

    def apply(self, x):
        self.src.check(x)
        return self._image(x)


def hom_apply(h: Hom, x):
    return h.apply(x)


def hom_is_injective(h: Hom) -> bool:
    """Kernel triviality, decided per class pair."""
    if h.src.order() == 1:
        return True
    if isinstance(h.src, FiniteTable):
        return sum(1 for y in h.data if y == h.dst.id_index) == 1
    if isinstance(h.dst, FreeGroup):
        # covers a Z source too: a nonempty word generates a rank-1 subgroup
        return all(h.data) and h._fold.rank() == h.src.rank
    if isinstance(h.dst, FreeAbelian):
        if isinstance(h.src, FreeGroup) and h.src.rank >= 2:
            return False  # a commutator of distinct letters dies
        return sum(1 for d in h._snf.diagonal if d != 0) == h.src.rank
    # finite target, infinite source
    return False


def hom_member(h: Hom, y) -> MembershipAnswer:
    """Decide y in im(h); on success the preimage maps onto y exactly."""
    h.dst.check(y)
    x = h._preimage(y)
    return MembershipAnswer(False) if x is None else MembershipAnswer(True, x)


def cogenerator(h: Hom):
    """An element of the target outside im(h); None exactly when surjective."""
    if isinstance(h.dst, FiniteTable):
        image = h._first_preimage if isinstance(h.src, FiniteTable) else h._witness
        for y in h.dst.elements():
            if y not in image:
                return y
        return None
    if isinstance(h.dst, FreeGroup):
        return h._fold.cogenerator()
    # free abelian target: the first cokernel generator of nonunit order
    return next((y for d, y in h._snf.cokernel() if d != 1), None)


def is_surjective(h: Hom) -> bool:
    return cogenerator(h) is None


def is_isomorphism(h: Hom) -> bool:
    return hom_is_injective(h) and is_surjective(h)


def compose(outer: Hom, inner: Hom) -> Hom:
    """outer after inner, through the unchecked image cores: every element
    they meet is already an element of a hom's group."""
    if inner.dst != outer.src:
        raise ShapeMismatch("homs do not compose: middle groups differ")
    if isinstance(inner.src, FiniteTable) and not isinstance(outer.dst, FiniteTable):
        raise UnsupportedHom("finite source composites must land in a finite group")
    first, then = inner._image, outer._image
    return Hom.of(inner.src, outer.dst, lambda x: then(first(x)))


def inverse(h: Hom) -> Hom:
    """Inverse of an isomorphism (checked), through the membership core."""
    if not is_isomorphism(h):
        raise ShapeMismatch("hom is not an isomorphism")
    preimage = h._preimage

    def f(y):
        x = preimage(y)
        if x is None:
            raise AssertionError("surjective hom missing a generator preimage")
        return x

    return Hom.of(h.dst, h.src, f)


# ---------------------------------------------------------------------------
# ranks


def group_rank(g: GroupDesc) -> int:
    """Minimal number of generators.  For a table, the size of the first
    minimal generating subset (``_ft_generating_set``), the set whose
    labels name the table's letters in ``pi1``."""
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


def format_element(g: GroupDesc, x, sep: str = ".") -> str:
    """Text form of x; free-group letters are joined by ``sep`` ('.' in
    the word grammar, a space in .gog images)."""
    g.check(x)
    if isinstance(g, FreeAbelian):
        return "[" + ",".join(str(a) for a in x) + "]"
    if isinstance(g, FiniteTable):
        return f"#{x}"
    if not x:
        return "1"
    return sep.join(
        g.names[abs(s) - 1] + (INVERSE_SUFFIX if s < 0 else "") for s in x
    )


INVERSE_SUFFIX = "^-1"  # marks an inverse letter or a reverse half-edge in text


def split_inverse(token: str) -> tuple:
    """(name, -1) for a token ``name^-1``, else (token, 1)."""
    if token.endswith(INVERSE_SUFFIX):
        return token[: -len(INVERSE_SUFFIX)], -1
    return token, 1


def parse_free_word(g: FreeGroup, text: str):
    """Parse a free-group word; letters split on whitespace or '.'."""
    text = text.strip()
    if text in ("", "1"):
        return ()
    index = {name: i + 1 for i, name in enumerate(g.names)}
    word = []
    for part in text.replace(".", " ").split():
        part, sign = split_inverse(part)
        if part not in index:
            raise ShapeMismatch(f"unknown free-group letter {part!r}")
        word.append(sign * index[part])
    return free_reduce(tuple(word))


def _parse_int(text: str, element: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ShapeMismatch(f"bad integer {text.strip()!r} in element {element!r}") from None


def parse_element(g: GroupDesc, text: str):
    text = text.strip()
    if isinstance(g, FreeAbelian):
        if not (text.startswith("[") and text.endswith("]")):
            raise ShapeMismatch(f"free abelian element must look like [k1,...]: {text!r}")
        inner = text[1:-1].strip()
        vec = tuple(_parse_int(p, text) for p in inner.split(",")) if inner else ()
        g.check(vec)
        return vec
    if isinstance(g, FiniteTable):
        if text.startswith("#"):
            idx = _parse_int(text[1:], text)
        elif text in g.labels:
            idx = g.labels.index(text)
        else:
            raise ShapeMismatch(f"unknown table element {text!r}")
        g.check(idx)
        return idx
    return parse_free_word(g, text)
