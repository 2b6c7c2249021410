import itertools
import random
from math import lcm

import pytest

from revsym.exactmath import (
    IntMatrix,
    IntPoly,
    NotUnimodular,
    RECIPROCAL_DIRECT,
    RECIPROCAL_NONE,
    RECIPROCAL_UP_TO_SIGN,
    char_poly,
    cyclotomic,
    euler_phi,
    finite_order_test,
    mat_det,
    mat_inverse_unimodular,
    mat_mul,
    mat_pow,
    reciprocity_class,
)

FIB = IntMatrix([[0, 1], [1, 1]])
FIB_REV = IntMatrix([[1, 0], [1, -1]])
ROT = IntMatrix([[0, -1], [1, 0]])

M4 = IntMatrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 2, 2, 2]])
N4 = IntMatrix([[1, 0, -3, 1], [-1, 3, 2, -1], [1, -3, 1, 0], [0, 1, -3, 1]])


def random_unimodular(rng, n, steps=8):
    """Random product of elementary shears and signed swaps, det = +-1."""
    m = IntMatrix.identity(n)
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        if kind == 0:
            e[i][j] = rng.randint(-2, 2)
        elif kind == 1:
            e[i][i] = 0
            e[j][j] = 0
            e[i][j] = 1
            e[j][i] = -1
        else:
            e[i][i] = -1
        m = mat_mul(m, IntMatrix(e))
    return m


def charpoly_oracle(a):
    """Independent route: cofactor expansion of det(xI - A) over IntPoly."""
    n = a.n
    entries = [[IntPoly([-a.rows[i][j]] if i != j else [-a.rows[i][j], 1])
                for j in range(n)] for i in range(n)]

    def det_rec(rows, cols):
        if len(cols) == 1:
            return entries[rows[0]][cols[0]]
        total = IntPoly([])
        for k, c in enumerate(cols):
            term = entries[rows[0]][c] * det_rec(rows[1:], cols[:k] + cols[k + 1:])
            total = total + term if k % 2 == 0 else total - term
        return total

    return det_rec(tuple(range(n)), tuple(range(n)))


def reference_finite_order(a, projective=False):
    """The divisor-search order decision that `finite_order_test` replaced.

    Factor the cofactor characteristic polynomial over the cyclotomic
    polynomials Phi_m with phi(m) <= n, check A^L = I for L the lcm of the
    indices, then search the divisors of L for the GL order and the divisors
    of that for the PGL order.  Powers are plain repeated products.
    """
    n = a.n
    ident = IntMatrix.identity(n)

    def power(k):
        p = ident
        for _ in range(k):
            p = mat_mul(p, a)
        return p

    def divisors(k):
        return [d for d in range(1, k + 1) if k % d == 0]

    remaining = charpoly_oracle(a)
    orders = set()
    admissible = [m for m in range(1, 2 * n * n + 2) if euler_phi(m) <= n]
    while remaining.degree > 0:
        for m in admissible:
            q, r = remaining.divmod_monic(cyclotomic(m))
            if r.is_zero():
                remaining = q
                orders.add(m)
                break
        else:
            return None
    big = lcm(*orders)
    if power(big) != ident:
        return None
    gl_order = next(k for k in divisors(big) if power(k) == ident)
    if not projective:
        return gl_order
    return next(k for k in divisors(gl_order) if power(k) in (ident, -ident))


def reference_inverse(a):
    """The cofactor inverse that `mat_inverse_unimodular` replaced: the
    adjugate, one Bareiss minor per entry, times det = +-1."""
    n = a.n
    d = mat_det(a)
    assert d in (1, -1)
    if n == 1:
        return IntMatrix([[d]])

    def minor(i, j):
        return IntMatrix([[a.rows[r][c] for c in range(n) if c != j]
                          for r in range(n) if r != i])

    return IntMatrix([[d * (-1) ** (i + j) * mat_det(minor(j, i))
                       for j in range(n)] for i in range(n)])


# degrees of the cyclotomic blocks used below
BLOCK_DEGREES = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 10: 4, 12: 4}


def companion(p):
    """Companion matrix of a monic IntPoly."""
    d = p.degree
    rows = [[1 if j == i + 1 else 0 for j in range(d)] for i in range(d - 1)]
    rows.append([-c for c in p.coeffs[:d]])
    return rows


def cyclotomic_block_matrices(n, count, seed):
    """Seeded P*B*P^-1 with B block-diagonal in cyclotomic companions.

    Half the B repeat their first block as the last one, some are negated,
    and some with two or more blocks get +-1 in the top-right corner: that
    keeps det and the characteristic polynomial but makes many of them
    non-semisimple.
    """
    rng = random.Random(seed)

    def pick(room):
        return rng.choice([m for m, d in BLOCK_DEGREES.items() if d <= room])

    out = []
    for _ in range(count):
        first = pick(n)
        twin = 2 * BLOCK_DEGREES[first] <= n and rng.random() < 0.5
        indices = [first]
        size = BLOCK_DEGREES[first] * (1 + twin)
        while size < n:
            indices.append(pick(n - size))
            size += BLOCK_DEGREES[indices[-1]]
        if twin:
            indices.append(first)
        blocks = [companion(cyclotomic(m)) for m in indices]
        b = [[0] * n for _ in range(n)]
        at = 0
        for blk in blocks:
            for i, row in enumerate(blk):
                b[at + i][at:at + len(row)] = row
            at += len(blk)
        if rng.random() < 0.3:
            b = [[-v for v in row] for row in b]
        if len(blocks) > 1 and rng.random() < 0.5:
            b[0][n - 1] = rng.choice((-1, 1))
        p = random_unimodular(rng, n, steps=4)
        out.append(mat_mul(mat_mul(p, IntMatrix(b)), mat_inverse_unimodular(p)))
    return out


class TestMatMul:
    def test_identity(self):
        a = IntMatrix([[3, -1], [2, 5]])
        assert mat_mul(IntMatrix.identity(2), a) == a
        assert mat_mul(a, IntMatrix.identity(2)) == a

    def test_fibonacci_square(self):
        assert mat_mul(FIB, FIB) == IntMatrix([[1, 1], [1, 2]])

    def test_reversor_product_up_to_sign(self):
        # R*M agrees with [[0,-1],[1,0]] up to an overall sign (exactly -1x).
        prod = mat_mul(FIB_REV, FIB)
        assert prod == IntMatrix([[0, 1], [-1, 0]])
        assert prod == -ROT

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(FIB, IntMatrix([[1]]))

    def test_associativity_random(self):
        rng = random.Random(101)
        for _ in range(60):
            mats = [IntMatrix([[rng.randint(-9, 9) for _ in range(3)]
                               for _ in range(3)]) for _ in range(3)]
            a, b, c = mats
            assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


class TestDet:
    def test_identity(self):
        assert mat_det(IntMatrix.identity(4)) == 1

    def test_2x2_values(self):
        assert mat_det(FIB) == -1
        assert mat_det(IntMatrix([[5, 7], [7, 10]])) == 1

    def test_multiplicative_on_unimodular(self):
        rng = random.Random(7)
        for n in (2, 3, 4):
            for _ in range(20):
                a = random_unimodular(rng, n)
                b = random_unimodular(rng, n)
                assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)

    def test_singular(self):
        assert mat_det(IntMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])) == 0


class TestInverse:
    def test_identity(self):
        assert mat_inverse_unimodular(IntMatrix.identity(3)) == IntMatrix.identity(3)

    def test_frozen_examples(self):
        assert mat_inverse_unimodular(IntMatrix([[5, 7], [7, 10]])) == \
            IntMatrix([[10, -7], [-7, 5]])
        assert mat_inverse_unimodular(IntMatrix([[1, 2], [2, 3]])) == \
            IntMatrix([[-3, 2], [2, -1]])
        assert mat_inverse_unimodular(IntMatrix([[-1]])) == IntMatrix([[-1]])

    def test_not_unimodular(self):
        for rows in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[0, 0], [0, 0]],
                     [[1, 0, 0], [0, 1, 0], [0, 0, 3]], [[0]], [[2]]):
            with pytest.raises(NotUnimodular):
                mat_inverse_unimodular(IntMatrix(rows))

    def test_matches_cofactor_reference_2x2(self):
        seen = 0
        for entries in itertools.product(range(-3, 4), repeat=4):
            a = IntMatrix([entries[:2], entries[2:]])
            if mat_det(a) in (1, -1):
                assert mat_inverse_unimodular(a) == reference_inverse(a)
                seen += 1
        assert seen == 232

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("det", [1, -1])
    def test_matches_cofactor_reference_random(self, n, det):
        rng = random.Random(100 * n + det)
        flip = IntMatrix([[-1 if i == j == 0 else int(i == j)
                           for j in range(n)] for i in range(n)])
        for _ in range(8):
            a = random_unimodular(rng, n)
            if mat_det(a) != det:
                a = mat_mul(flip, a)
            assert mat_det(a) == det
            assert mat_inverse_unimodular(a) == reference_inverse(a)

    def test_round_trip_random(self):
        rng = random.Random(13)
        for n in (2, 3, 4, 6):
            for _ in range(12):
                a = random_unimodular(rng, n)
                inv = mat_inverse_unimodular(a)
                ident = IntMatrix.identity(n)
                assert mat_mul(a, inv) == ident
                assert mat_mul(inv, a) == ident


class TestCharPoly:
    def test_quartic_reference_values(self):
        assert char_poly(M4) == IntPoly([1, -2, -2, -2, 1])
        assert char_poly(N4) == IntPoly([1, -14, 22, -6, 1])

    def test_identity(self):
        assert char_poly(IntMatrix.identity(2)) == IntPoly([1, -2, 1])

    def test_against_cofactor_oracle(self):
        rng = random.Random(23)
        for n in (2, 3, 4):
            for _ in range(15):
                a = IntMatrix([[rng.randint(-6, 6) for _ in range(n)]
                               for _ in range(n)])
                assert char_poly(a) == charpoly_oracle(a)
        a6 = IntMatrix([[rng.randint(-3, 3) for _ in range(6)] for _ in range(6)])
        assert char_poly(a6) == charpoly_oracle(a6)

    def test_conjugation_invariance(self):
        rng = random.Random(31)
        for _ in range(25):
            a = IntMatrix([[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
            s = random_unimodular(rng, 3)
            conj = mat_mul(mat_mul(s, a), mat_inverse_unimodular(s))
            assert char_poly(conj) == char_poly(a)

    def test_text_rendering(self):
        assert char_poly(M4).to_text() == "x^4 - 2*x^3 - 2*x^2 - 2*x + 1"


class TestReciprocity:
    def test_palindrome(self):
        assert reciprocity_class(IntPoly([1, -2, -2, -2, 1])) == RECIPROCAL_DIRECT

    def test_non_reciprocal_quartic(self):
        assert reciprocity_class(IntPoly([1, -14, 22, -6, 1])) == RECIPROCAL_NONE

    def test_fibonacci_poly_is_neither(self):
        assert reciprocity_class(IntPoly([-1, -1, 1])) == RECIPROCAL_NONE

    def test_up_to_sign(self):
        # x^3 - 2x^2 + 2x - 1 reversed is -(p) after sign flip: use x^3 - 1? no:
        # p = x^3 + 2x^2 - 2x - 1 has reversal -1,-2,2,1 = -p.
        assert reciprocity_class(IntPoly([-1, -2, 2, 1])) == RECIPROCAL_UP_TO_SIGN

    def test_det_plus_one_2x2_self_inverse_spectrum(self):
        rng = random.Random(41)
        seen = 0
        for _ in range(200):
            a = random_unimodular(rng, 2)
            if mat_det(a) != 1:
                continue
            seen += 1
            assert char_poly(a) == char_poly(mat_inverse_unimodular(a))
        assert seen > 20


class TestFiniteOrder:
    def test_identity(self):
        assert finite_order_test(IntMatrix.identity(2)) == 1

    def test_quarter_turn(self):
        assert finite_order_test(ROT) == 4
        assert finite_order_test(ROT, projective=True) == 2

    def test_fibonacci_infinite(self):
        assert finite_order_test(FIB) is None

    def test_unipotent_shear_infinite(self):
        assert finite_order_test(IntMatrix([[1, 1], [0, 1]])) is None

    def test_neg_identity(self):
        m = -IntMatrix.identity(3)
        assert finite_order_test(m) == 2
        assert finite_order_test(m, projective=True) == 1

    def test_requires_unimodular(self):
        with pytest.raises(NotUnimodular):
            finite_order_test(IntMatrix([[2, 0], [0, 2]]))

    def test_agrees_with_naive_iteration(self):
        ident = IntMatrix.identity(2)

        def naive(a, maxk=60):
            p = a
            for k in range(1, maxk + 1):
                if p == ident:
                    return k
                p = mat_mul(p, a)
            return None

        entries = range(-3, 4)
        checked = 0
        for a00 in entries:
            for a01 in entries:
                for a10 in entries:
                    for a11 in entries:
                        m = IntMatrix([[a00, a01], [a10, a11]])
                        if mat_det(m) not in (1, -1):
                            continue
                        checked += 1
                        assert finite_order_test(m) == naive(m), m
        assert checked == 232

    @staticmethod
    def agree_with_divisor_search(m):
        """Compare with the reference; name the kind of order found."""
        assert char_poly(m) == charpoly_oracle(m)
        gl = reference_finite_order(m)
        pgl = reference_finite_order(m, projective=True)
        assert finite_order_test(m) == gl, m
        assert finite_order_test(m, projective=True) == pgl, m
        return "infinite" if gl is None else "half" if pgl != gl else "full"

    def test_unimodular_2x2_against_divisor_search(self):
        entries = range(-3, 4)
        checked = 0
        for e in itertools.product(entries, repeat=4):
            m = IntMatrix([e[:2], e[2:]])
            if mat_det(m) in (1, -1):
                checked += 1
                self.agree_with_divisor_search(m)
        assert checked == 232

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_cyclotomic_blocks_against_divisor_search(self, n):
        kinds = {self.agree_with_divisor_search(m)
                 for m in cyclotomic_block_matrices(n, 30, seed=500 + n)}
        # finite orders with and without -I among the powers, and infinite
        # ones, which are all non-semisimple: every B has a cyclotomic
        # characteristic polynomial
        assert kinds == {"infinite", "half", "full"}


class TestPolyBasics:
    def test_cyclotomic_values(self):
        assert cyclotomic(1) == IntPoly([-1, 1])
        assert cyclotomic(2) == IntPoly([1, 1])
        assert cyclotomic(4) == IntPoly([1, 0, 1])
        assert cyclotomic(6) == IntPoly([1, -1, 1])
        assert cyclotomic(12) == IntPoly([1, 0, -1, 0, 1])

    def test_phi(self):
        assert [euler_phi(m) for m in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]

    def test_divmod_exact(self):
        p = IntPoly([-1, 0, 0, 0, 0, 1])  # x^5 - 1
        q, r = p.divmod_monic(IntPoly([-1, 1]))
        assert r.is_zero()
        assert q == IntPoly([1, 1, 1, 1, 1])

    def test_pow_via_matrix(self):
        assert mat_pow(FIB, 5) == IntMatrix([[3, 5], [5, 8]])
        assert mat_pow(FIB, -1) == IntMatrix([[-1, 1], [1, 0]])
        assert mat_pow(FIB, 0) == IntMatrix.identity(2)


    @pytest.mark.parametrize("a", [FIB, M4])
    def test_pow_against_repeated_products(self, a):
        ident = IntMatrix.identity(a.n)
        inv = mat_inverse_unimodular(a)
        p = q = ident
        for k in range(13):
            assert mat_pow(a, k) == p
            if 1 <= k <= 5:
                assert mat_pow(a, -k) == q
                assert mat_mul(mat_pow(a, -k), mat_pow(a, k)) == ident
            p = mat_mul(p, a)
            q = mat_mul(q, inv)
