import math
import random
import time
from collections import deque

from gogroups.folding import FoldedSubgroup, free_inv, free_mul, free_reduce


def evaluate(images, word):
    out = ()
    for s in word:
        out = free_mul(out, images[abs(s) - 1] if s > 0 else free_inv(images[abs(s) - 1]))
    return out


def random_word(rng, rank, maxlen):
    w = []
    for _ in range(rng.randint(0, maxlen)):
        w.append(rng.choice([1, -1]) * rng.randint(1, rank))
    return free_reduce(tuple(w))


def shortlex_cogenerator(fold):
    """Reference: None when every ambient generator is in the subgroup,
    else the first reduced word outside it in shortlex order (letters
    1, -1, 2, -2, ...), by breadth-first search up to length 2(V + 2) for
    V folded vertices."""
    if all(fold.contains((i,)) for i in range(1, fold.ambient_rank + 1)):
        return None
    letters = [s for i in range(1, fold.ambient_rank + 1) for s in (i, -i)]
    queue = deque([()])
    bound = 2 * (len(fold._table) + 2)
    while queue:
        w = queue.popleft()
        if w and not fold.contains(w):
            return w
        if len(w) < bound:
            queue.extend(w + (s,) for s in letters if not (w and w[-1] == -s))
    raise AssertionError("cogenerator search exhausted its bound")


def test_free_mul_joins_reduced_words_at_the_seam():
    rng = random.Random(17)
    cancelled = 0
    for _ in range(2000):
        rank = rng.randint(1, 3)
        a, b = random_word(rng, rank, 12), random_word(rng, rank, 12)
        if rng.random() < 0.5:  # b starts by cancelling a suffix of a
            k = rng.randint(0, len(a))
            b = free_reduce(free_inv(a[len(a) - k:]) + b)
        product = free_mul(a, b)
        assert product == free_reduce(a + b), (a, b)
        cancelled += len(a) + len(b) - len(product)
    assert cancelled > 2000


def test_preimage_lift_round_trips_300_random_subgroups():
    rng = random.Random(7)
    for _ in range(300):
        rank = rng.randint(1, 3)
        k = rng.randint(1, 4)
        images = [random_word(rng, rank, 5) for _ in range(k)]
        fold = FoldedSubgroup(rank, images)
        w = random_word(rng, k, 6)
        ambient = evaluate(images, w)
        assert fold.contains(ambient)
        pre = fold.preimage(ambient)
        assert pre is not None
        assert evaluate(images, pre) == ambient
        cog = fold.cogenerator()
        if cog is not None:
            assert not fold.contains(cog)


def test_cogenerator_matches_shortlex_search_on_f2_f3():
    rng = random.Random(13)
    seen = set()
    for _ in range(300):
        rank = rng.choice([2, 3])
        images = [random_word(rng, rank, 3) for _ in range(rng.randint(0, 5))]
        fold = FoldedSubgroup(rank, images)
        cog = fold.cogenerator()
        assert cog == shortlex_cogenerator(fold), images
        seen.add(cog)
    assert {None, (1,), (2,), (3,)} <= seen


def test_rank_of_standard_subgroups():
    # [F2, F2] has infinite rank, but finite pieces behave predictably
    assert FoldedSubgroup(2, [(1,), (2,)]).rank() == 2
    assert FoldedSubgroup(2, [(1, 1), (2,), (1, 2)]).rank() == 2
    assert FoldedSubgroup(1, [(1, 1), (1, 1, 1)]).rank() == 1  # <a^2, a^3> = <a>
    assert FoldedSubgroup(3, []).rank() == 0


def test_identity_images_are_ignored():
    fold = FoldedSubgroup(2, [(), (1,)])
    assert fold.contains((1,))
    pre = fold.preimage((1, 1))
    assert evaluate([(), (1,)], pre) == (1, 1)


def test_whole_group_detection():
    assert FoldedSubgroup(2, [(1,), (2,)]).cogenerator() is None
    assert FoldedSubgroup(2, [(1,), (2,), (1, 2)]).cogenerator() is None
    assert FoldedSubgroup(2, [(1,), (2, 2)]).cogenerator() is not None
    assert FoldedSubgroup(0, []).cogenerator() is None
    # index-2 subgroup: every letter readable, yet proper
    sq = FoldedSubgroup(1, [(1, 1)])
    assert sq.cogenerator() == (1,)


def test_conjugated_generator_creates_tail():
    # a b a^-1 folds into a path with a hanging a-edge; membership and
    # preimages must still work through the tail
    images = [(1, 2, -1)]
    fold = FoldedSubgroup(2, images)
    assert fold.rank() == 1
    word = (1, 2, 2, -1)
    assert fold.contains(word)
    assert evaluate(images, fold.preimage(word)) == word
    assert not fold.contains((2,))


# p m_i p^-1 with an 18-letter conjugator p = b a b^-2 a^-5 b a^-1 b a b a b^-3
# and m = a^-2, a^-2 b^-2 a^-2, a b a^-2 (a = 1, b = 2): replaying a fold
# history doubled the membership path per undone fold (about 51 s)
CONJUGATOR = (2, 1, -2, -2, -1, -1, -1, -1, -1, 2, -1, 2, 1, 2, 1, -2, -2, -2)
CONJUGATED_IMAGES = [
    free_mul(free_mul(CONJUGATOR, m), free_inv(CONJUGATOR))
    for m in [(-1, -1), (-1, -1, -2, -2, -1, -1), (1, 2, -1, -1)]
]


def test_conjugated_images_preimage_within_budget():
    start = time.perf_counter()
    fold = FoldedSubgroup(2, CONJUGATED_IMAGES)
    word = free_mul(CONJUGATED_IMAGES[0], CONJUGATED_IMAGES[1])
    pre = fold.preimage(word)
    elapsed = time.perf_counter() - start
    assert pre == (1, 2)
    assert fold.rank() == 3
    assert fold.preimage(free_inv(CONJUGATED_IMAGES[2])) == (-3,)
    assert elapsed < 2.0, f"fold + preimage took {elapsed:.2f} s"


def test_rank_one_against_gcd_oracle():
    # <a^k1, ..., a^km> = <a^gcd(k1, ..., km)> inside F1
    rng = random.Random(11)
    for _ in range(300):
        ks = [rng.randint(-12, 12) for _ in range(rng.randint(0, 4))]
        d = math.gcd(*ks) if ks else 0
        fold = FoldedSubgroup(1, [(1,) * k if k > 0 else (-1,) * -k for k in ks])
        for n in range(-30, 31):
            word = (1,) * n if n > 0 else (-1,) * -n
            assert fold.contains(word) == (n % d == 0 if d else n == 0), (ks, n)
        assert (fold.cogenerator() is None) == (d == 1), ks
        assert fold.rank() == (1 if d else 0), ks
        assert (fold.cogenerator() == (1,)) == (d != 1), ks
        assert fold.cogenerator() == shortlex_cogenerator(fold), ks
