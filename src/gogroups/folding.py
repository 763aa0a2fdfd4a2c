"""Stallings folding for finitely generated subgroups of a free group.

One audited implementation backs membership, injectivity testing and
cogenerator search for every homomorphism whose codomain is free.  The
graph is built as a wedge of cycles, one per subgroup generator word,
and folded once (Stallings 1983; Kapovich-Myasnikov 2002).

Label invariant: every edge carries a word over the subgroup generators
(1-based signed indices, like ambient words).  In the wedge the last edge
of generator i's cycle carries (i,) and every other edge (); traversing
an edge backwards reads the inverse label.  Folding merges vertices into
classes, and each union-find link carries the label word of a wedge path
from the parent vertex to the child whose ambient letters cancel.  So
every edge of the folded graph carries the label of a wedge path between
its class representatives that reads the edge's one letter, and the
labels along any closed walk at the base spell a preimage of the ambient
word it reads.  No fold history is kept.

Words over a free group of rank n are tuples of nonzero ints: +i is the
i-th letter (1-based), -i its inverse, with no xx^-1 adjacency.  The
helpers on such words (``free_reduce``, ``free_mul``, ``free_inv`` and the
exponent reader ``free_exponents``) are the library's one implementation
of each, shared by free groups, edge maps and presentations.
"""

from __future__ import annotations

from collections import deque


def free_reduce(word):
    out = []
    for s in word:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def free_mul(a, b):
    """The product of two reduced words: letters cancel only at the seam,
    so the k cancelling pairs are counted and the rest joined by slicing."""
    k, n = 0, min(len(a), len(b))
    while k < n and a[-1 - k] == -b[k]:
        k += 1
    return tuple(a[: len(a) - k]) + tuple(b[k:])


def free_inv(a):
    return tuple(-s for s in reversed(a))


def free_exponents(word, n: int) -> list:
    """The exponent sum of each of n generators in a free word."""
    vec = [0] * n
    for s in word:
        vec[abs(s) - 1] += 1 if s > 0 else -1
    return vec


class FoldedSubgroup:
    """Folded graph of the subgroup generated by ``image_words`` inside a
    free group of rank ``ambient_rank``.

    After construction each class representative r has a table
    ``{signed ambient letter: (representative reached, generator word)}``;
    the word is the label of a path between the two representatives.
    """

    BASE = 0

    def __init__(self, ambient_rank, image_words):
        self.ambient_rank = ambient_rank
        # half-edges 2k and 2k + 1 are the two directions of edge k
        starts, ends, keys, labels = [], [], [], []
        n_vertices = 1
        for gi, w in enumerate(map(free_reduce, image_words)):
            if not w:
                continue
            cycle = [self.BASE, *range(n_vertices, n_vertices + len(w) - 1), self.BASE]
            n_vertices += len(w) - 1
            for j, s in enumerate(w):
                label = (gi + 1,) if j == len(w) - 1 else ()
                a, b = cycle[j], cycle[j + 1]
                starts += [a, b]
                ends += [b, a]
                keys += [s, -s]
                labels += [label, free_inv(label)]
        self._parent = list(range(n_vertices))
        self._link = [()] * n_vertices
        self._size = [1] * n_vertices
        self._fold(starts, ends, keys, labels)
        self._base = self._find(self.BASE)
        self._base_word = self._pot(self.BASE)

    # -- construction internals ------------------------------------------

    def _find(self, v):
        """Class representative of v, compressing the path and its links."""
        path = []
        while self._parent[v] != v:
            path.append(v)
            v = self._parent[v]
        for u in reversed(path):
            p = self._parent[u]
            if p != v:
                self._link[u] = free_mul(self._link[p], self._link[u])
                self._parent[u] = v
        return v

    def _pot(self, v):
        """Generator word of a path from v's representative to v."""
        return () if self._find(v) == v else self._link[v]

    def _fold(self, starts, ends, keys, labels):
        """Insert every half-edge into its class's letter table; a collision
        drops the second edge and queues a merge of the two classes reached,
        linked by the word between them.  Sets the query tables."""
        tables = [{} for _ in self._parent]
        alive = [True] * (len(keys) // 2)
        pending = deque()

        def between(h):
            return free_reduce(self._pot(starts[h]) + labels[h] + free_inv(self._pot(ends[h])))

        def place(table, h):
            kept = table.setdefault(keys[h], h)
            if kept == h:
                return
            alive[h >> 1] = False
            twin = h ^ 1
            twin_table = tables[self._find(starts[twin])]
            if twin_table.get(keys[twin]) == twin:
                del twin_table[keys[twin]]
            pending.append((kept, h))

        for h in range(len(keys)):
            if alive[h >> 1]:
                place(tables[self._find(starts[h])], h)
        while pending:
            h1, h2 = pending.popleft()
            ra, rb = self._find(ends[h1]), self._find(ends[h2])
            if ra == rb:
                continue
            link = free_mul(free_inv(between(h1)), between(h2))
            if self._size[ra] < self._size[rb]:
                ra, rb, link = rb, ra, free_inv(link)
            self._parent[rb] = ra
            self._link[rb] = link
            self._size[ra] += self._size[rb]
            moving, tables[rb] = tables[rb], None
            for h in moving.values():
                if alive[h >> 1]:
                    place(tables[ra], h)
        self._table = {
            r: {s: (self._find(ends[h]), between(h)) for s, h in table.items()}
            for r, table in enumerate(tables)
            if table is not None
        }

    # -- queries -----------------------------------------------------------

    def rank(self) -> int:
        """Rank of the subgroup: E - V + 1 of the (connected) folded graph."""
        edges = sum(len(table) for table in self._table.values()) // 2
        return edges - len(self._table) + 1

    def read(self, word):
        """Follow ``word`` from the base's class.

        Returns (class reached, generator words along the walk); the class
        is None when some letter has no edge to follow.
        """
        at = self._base
        words = []
        for s in free_reduce(word):
            step = self._table[at].get(s)
            if step is None:
                return None, words
            at, x = step
            words.append(x)
        return at, words

    def contains(self, word) -> bool:
        return self.read(word)[0] == self._base

    def preimage(self, word):
        """A word in the subgroup generators mapping onto ``word``, or None:
        the labels along its closed walk, conjugated back to the base."""
        at, words = self.read(word)
        if at != self._base:
            return None
        out = list(free_inv(self._base_word))
        for x in words:
            out.extend(x)
        out.extend(self._base_word)
        return free_reduce(out)

    def cogenerator(self):
        """Shortlex-first reduced word outside the subgroup; None when the
        subgroup is everything.  One letter suffices: a proper subgroup
        misses some ambient generator, and for the least such i, (i,) is
        the shortlex-first word outside: the empty word and (j,), (-j,)
        for j < i are inside."""
        for i in range(1, self.ambient_rank + 1):
            if not self.contains((i,)):
                return (i,)
        return None
