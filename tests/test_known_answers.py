"""Inputs whose answer is known by construction, at n >= 3.

* f = r1 r2, with r1 and r2 involutions, is reversible: r1 f r1 = r2 r1 =
  f^-1, so r1 is a witness that comes with the input.
* f1 (+) (1), with f1 a 2x2 block proven irreversible, is irreversible, as a
  reversor would restrict to one of f1; conjugates keep that.
* A block sum f of companion matrices C(q^k), q in {p, p*} with
  p = x^2 - x - 1 and p* = x^2 + x - 1, has elementary divisors {q^k}, and
  f^-1 has {q*^k}, with p and p* swapped.  The rank of C(A, B) =
  {X : X A = B X} is sum over q of deg(q) * sum_ij min(lambda_i, mu_j),
  lambda and mu the exponents of q in A and B, and A ~ B over Q iff that
  rank is the rank of C(A, A) (Byrnes & Gauger 1977).

The status counts of each stream are pinned, so that a gain or a loss
shows in review.
"""

import itertools
import random
from collections import Counter

import pytest

from revsym.exactmath import (
    IntMatrix,
    IntPoly,
    mat_inverse_unimodular,
    mat_mul,
)
from revsym.matgroup import (
    STATUS_CLASSIFIED,
    STATUS_INCONCLUSIVE,
    STATUS_IRREVERSIBLE,
    STATUS_TRIVIAL,
    GroupContext,
    analyze,
    intertwiner_lattice,
    is_reversor,
)
from test_enumeration import conjugate
from test_exactmath import companion


def involution(rng, n, steps):
    """P diag(+-1) P^-1, the signs not all equal, for P a product of
    `steps` elementary matrices I + k e_i e_j^T with k in {+-1, +-2}."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        p[i] = [a + k * b for a, b in zip(p[i], p[j])]
    signs = [1] * n
    while len(set(signs)) == 1:
        signs = [rng.choice((-1, 1)) for _ in range(n)]
    p = IntMatrix(p)
    d = IntMatrix([[s * (i == j) for j in range(n)]
                   for i, s in enumerate(signs)])
    return mat_mul(mat_mul(p, d), mat_inverse_unimodular(p))


# (n, steps per P, draws) -> status counts in GL at the default bound
INVOLUTION_PRODUCTS = {
    (3, 4, 60): {STATUS_CLASSIFIED: 58, STATUS_TRIVIAL: 2},
    (3, 8, 60): {STATUS_CLASSIFIED: 47, STATUS_INCONCLUSIVE: 13},
    (4, 4, 20): {STATUS_CLASSIFIED: 17, STATUS_TRIVIAL: 3},
}


@pytest.mark.parametrize("stream", list(INVOLUTION_PRODUCTS))
def test_products_of_involutions_are_never_irreversible(stream):
    n, steps, draws = stream
    rng = random.Random(f"known/{n}/{steps}")
    ctx = GroupContext(n)
    counts = Counter()
    for _ in range(draws):
        r1 = involution(rng, n, steps)
        f = mat_mul(r1, involution(rng, n, steps))
        assert is_reversor(r1, f, ctx)
        report = analyze(f, ctx)
        assert report.status != STATUS_IRREVERSIBLE, f
        assert all(is_reversor(x, f, ctx) for x, _ in report.reversors)
        counts[report.status] += 1
    assert counts == INVOLUTION_PRODUCTS[stream]


# hyperbolic blocks of determinant 1, one per trace, each proven
# irreversible in GL(2, Z) by its determinant form
IRREVERSIBLE_2X2 = [
    [[2, 5], [7, 18]], [[2, 5], [9, 23]], [[3, 7], [11, 26]],
    [[2, 5], [11, 28]], [[2, 7], [9, 32]], [[2, 5], [13, 33]],
    [[3, 7], [14, 33]], [[2, 5], [15, 38]], [[2, 7], [11, 39]],
    [[3, 7], [17, 40]], [[2, 5], [17, 43]], [[4, 9], [19, 43]],
    [[2, 7], [13, 46]], [[2, 5], [19, 48]], [[3, 11], [13, 48]],
]


def test_restrictions_of_irreversible_blocks_are_never_reversible():
    counts = Counter()
    for (a, b), (c, d) in IRREVERSIBLE_2X2:
        block = IntMatrix([[a, b], [c, d]])
        assert analyze(block, GroupContext(2)).status == STATUS_IRREVERSIBLE
        f = IntMatrix([[a, b, 0], [c, d, 0], [0, 0, 1]])
        for m in (f, conjugate(f, f"restriction/{a}/{b}/{c}", 4)):
            report = analyze(m, GroupContext(3))
            assert report.status not in (STATUS_CLASSIFIED, STATUS_TRIVIAL)
            counts[report.status] += 1
    assert counts == {STATUS_INCONCLUSIVE: 30}


def block_sum(blocks):
    n = sum(map(len, blocks))
    rows = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            rows[at + i][at:at + len(row)] = row
        at += len(block)
    return IntMatrix(rows)


# (q, exponent) -> C(q^exponent), for p = x^2 - x - 1 and p* = x^2 + x - 1
BLOCKS = {
    ("p", 1): companion(IntPoly([-1, -1, 1])),
    ("p*", 1): companion(IntPoly([-1, 1, 1])),
    ("p", 2): companion(IntPoly([1, 2, -1, -2, 1])),
    ("p*", 2): companion(IntPoly([1, -2, -1, 2, 1])),
}
SWAP = {"p": "p*", "p*": "p"}


def pairing_rank(a, b):
    """Rank of C(A, B) from the elementary divisors of A and B, each a list
    of (q, exponent) with deg q = 2."""
    return sum(2 * min(i, j) for (q, i), (r, j) in itertools.product(a, b)
               if q == r)


def _block_sums():
    # every multiset of the four blocks that fills n = 8
    for count in (2, 3, 4):
        for keys in itertools.combinations_with_replacement(BLOCKS, count):
            if sum(2 * k for _, k in keys) == 8:
                yield pytest.param(list(keys), id="+".join(
                    f"{q}^{k}" for q, k in keys))


# C(p^2) (+) C(p*) (+) C(p*): its chi is self-reciprocal, yet f^-1 has the
# elementary divisors {p*^2, p, p}
OBSTRUCTED = [("p", 2), ("p*", 1), ("p*", 1)]


class TestRationalRank:
    """The commutant rank against the reversor lattice ranks, on block sums
    at n = 8 whose elementary divisors are known."""

    @pytest.mark.parametrize("keys", list(_block_sums()))
    def test_ranks_match_the_elementary_divisors(self, keys):
        f = block_sum([BLOCKS[key] for key in keys])
        inverse = [(SWAP[q], k) for q, k in keys]
        # q*(-x) = q(x) for q = p and p*, so -f^-1 has the elementary
        # divisors of f
        assert len(intertwiner_lattice(f, f)) == pairing_rank(keys, keys)
        f_inv = mat_inverse_unimodular(f)
        assert len(intertwiner_lattice(f, f_inv)) == \
            pairing_rank(keys, inverse)
        assert len(intertwiner_lattice(f, -f_inv)) == \
            pairing_rank(keys, keys)

    @pytest.mark.parametrize("keys", list(_block_sums()))
    def test_gl_status_at_bound_0(self, keys):
        f = block_sum([BLOCKS[key] for key in keys])
        report = analyze(f, GroupContext(8), 0)
        similar = pairing_rank(keys, [(SWAP[q], k) for q, k in keys]) \
            == pairing_rank(keys, keys)
        assert report.status == (STATUS_INCONCLUSIVE if similar
                                 else STATUS_IRREVERSIBLE)
        assert report.reversor_bound == 0

    def test_obstruction_and_its_conjugate_are_irreversible(self):
        f = block_sum([BLOCKS[key] for key in OBSTRUCTED])
        for m in (f, conjugate(f, "rank/8", 6)):
            report = analyze(m, GroupContext(8), 0)
            assert report.status == STATUS_IRREVERSIBLE
            assert report.reversor_bound == 0
            assert report.irreversibility_reason == (
                "reversor lattice rank 8 < commutant rank 12: f is not "
                "similar over Q to f^-1")

    def test_obstruction_is_not_read_in_pgl(self):
        # -f^-1 has the elementary divisors of f, so its lattice has the
        # commutant's rank 12; the PGL box at bound 0 is empty
        f = block_sum([BLOCKS[key] for key in OBSTRUCTED])
        report = analyze(f, GroupContext(8, True), 0)
        assert report.status == STATUS_INCONCLUSIVE

    def test_same_pattern_stays_inconclusive(self):
        f = block_sum([BLOCKS["p", 2], BLOCKS["p*", 2]])
        assert analyze(f, GroupContext(8), 0).status == STATUS_INCONCLUSIVE
