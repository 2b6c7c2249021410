"""Exact integer linear algebra and polynomial arithmetic.

Everything in this module is exact: matrix and polynomial entries are Python
ints (arbitrary precision), and all algorithms are fraction-free or use exact
division.  No floating point anywhere.

The main objects are square integer matrices (:class:`IntMatrix`) and dense
univariate integer polynomials (:class:`IntPoly`), together with the
operations the higher layers need: exact products, determinants, Hermite
row reduction and unimodular inverses by it, characteristic polynomials,
self-reciprocity tests and a complete finite-order decision procedure based
on cyclotomic factorization.
"""

from __future__ import annotations

from math import lcm

RECIPROCAL_DIRECT = "direct"
RECIPROCAL_UP_TO_SIGN = "up-to-sign"
RECIPROCAL_NONE = "none"


class NotUnimodular(ValueError):
    """Raised when a matrix with determinant outside {+1, -1} is passed to an
    operation that requires an integer inverse."""


class IntMatrix:
    """Immutable square matrix with integer entries."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n < 1:
            raise ValueError("matrix must have dimension >= 1")
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for v in row:
                if not isinstance(v, int):
                    raise TypeError(f"entries must be int, got {type(v).__name__}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __neg__(self):
        return IntMatrix([[-v for v in row] for row in self.rows])

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return IntMatrix([[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return mat_mul(self, other)

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    def scaled(self, k: int) -> "IntMatrix":
        return IntMatrix([[k * v for v in row] for row in self.rows])

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]!r})"


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact matrix product."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    n = a.n
    bt = tuple(zip(*b.rows))
    return IntMatrix([[sum(x * y for x, y in zip(row, col)) for col in bt]
                      for row in a.rows])


def mat_det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = a.n
    if n == 1:
        return a.rows[0][0]
    if n == 2:
        r = a.rows
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]
    m = [list(row) for row in a.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _reduce_column(work, start, col):
    """Integer-eliminate `col` among rows start.. ; returns True if a pivot
    row was produced (and swapped into position `start`)."""
    while True:
        nz = [i for i in range(start, len(work)) if work[i][col] != 0]
        if not nz:
            return False
        if len(nz) == 1:
            i = nz[0]
            work[start], work[i] = work[i], work[start]
            return True
        nz.sort(key=lambda i: (abs(work[i][col]), i))
        base = nz[0]
        pivot_val = work[base][col]
        for i in nz[1:]:
            q = work[i][col] // pivot_val
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[base])]


def _hnf_rows(vectors):
    """Canonical (Hermite) basis of the lattice spanned by `vectors`:
    positive pivots, entries above each pivot reduced modulo it."""
    work = [list(v) for v in vectors if any(v)]
    if not work:
        return []
    ncols = len(work[0])
    r = 0
    for col in range(ncols):
        if not _reduce_column(work, r, col):
            continue
        if work[r][col] < 0:
            work[r] = [-x for x in work[r]]
        p = work[r][col]
        for i in range(r):
            q = work[i][col] // p
            if q:
                work[i] = [x - q * y for x, y in zip(work[i], work[r])]
        r += 1
    return [tuple(row) for row in work[:r]]


def mat_inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Integer inverse of a matrix with determinant +-1.

    Unimodular row operations take [A | I] to its Hermite form [U A | U].
    Every pivot of the left block is 1 exactly when A is unimodular, and then
    U A = I, so the right block is A^-1.
    """
    n = a.n
    rows = _hnf_rows([row + tuple(int(i == j) for j in range(n))
                      for i, row in enumerate(a.rows)])
    if any(rows[i][i] != 1 for i in range(n)):
        raise NotUnimodular(f"determinant is {mat_det(a)}, not +-1")
    return IntMatrix([row[n:] for row in rows])


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    """Exact k-th power; negative k uses the unimodular inverse."""
    if k < 0:
        return mat_pow(mat_inverse_unimodular(a), -k)
    if k == 0:
        return IntMatrix.identity(a.n)
    # left-to-right ladder from the leading bit: no product with I
    result = a
    for bit in bin(k)[3:]:
        result = mat_mul(result, result)
        if bit == "1":
            result = mat_mul(result, a)
    return result


class IntPoly:
    """Dense univariate integer polynomial, little-endian coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError("coefficients must be int")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return IntPoly([])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def divmod_monic(self, divisor: "IntPoly"):
        """Quotient and remainder for a monic divisor; exact over Z."""
        if not divisor.is_monic():
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        d = divisor.degree
        quot = [0] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            q = rem[i]
            if q:
                quot[i - d] = q
                for j, c in enumerate(divisor.coeffs):
                    rem[i - d + j] -= q * c
        return IntPoly(quot), IntPoly(rem)

    def reversed_coeffs(self) -> "IntPoly":
        """x^d * p(1/x) as a polynomial (coefficient reversal)."""
        return IntPoly(list(reversed(self.coeffs)))

    def sign_alternated(self) -> "IntPoly":
        """(-1)^d * p(-x), monic again when p is monic."""
        d = self.degree
        return IntPoly([c * (-1) ** (d - i) for i, c in enumerate(self.coeffs)])

    def to_text(self, var: str = "x") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"


def char_poly(a: IntMatrix) -> IntPoly:
    """Monic characteristic polynomial det(xI - A).

    Computed by the Faddeev-LeVerrier recurrence M_k = A M_(k-1) + c I with
    one product per step: A M_k is kept for the next step and its trace
    gives the next coefficient, and the last trace is read off the diagonal
    without forming the product.  The trace divisions are exact over Z, so
    no rationals appear.
    """
    n = a.n
    c = [0] * (n + 1)
    c[n] = 1
    am = a  # A M_1 with M_1 = I
    c[n - 1] = -a.trace()
    for k in range(2, n + 1):
        coef = c[n - k + 1]
        m = IntMatrix([[v + coef if i == j else v for j, v in enumerate(row)]
                       for i, row in enumerate(am.rows)])
        if k < n:
            am = mat_mul(a, m)
            tr = am.trace()
        else:
            cols = tuple(zip(*m.rows))
            tr = sum(sum(x * y for x, y in zip(row, col))
                     for row, col in zip(a.rows, cols))
        if tr % k != 0:
            raise AssertionError("Faddeev-LeVerrier division must be exact")
        c[n - k] = -tr // k
    return IntPoly(c)


def reciprocity_class(p: IntPoly) -> str:
    """Whether x^d*p(1/x) equals p (direct), -p (up-to-sign), or neither.

    A necessary spectral condition for a unimodular matrix to be conjugate to
    its inverse is that its characteristic polynomial falls in one of the
    first two classes.
    """
    if p.degree < 1 or not p.is_monic():
        raise ValueError("polynomial must be monic of degree >= 1")
    rev = p.reversed_coeffs()
    if rev == p:
        return RECIPROCAL_DIRECT
    if rev == -p:
        return RECIPROCAL_UP_TO_SIGN
    return RECIPROCAL_NONE


def euler_phi(m: int) -> int:
    result = m
    t = m
    p = 2
    while p * p <= t:
        if t % p == 0:
            while t % p == 0:
                t //= p
            result -= result // p
        p += 1
    if t > 1:
        result -= result // t
    return result


_CYCLOTOMIC_CACHE: dict[int, IntPoly] = {}


def cyclotomic(m: int) -> IntPoly:
    """m-th cyclotomic polynomial by exact division of x^m - 1."""
    if m in _CYCLOTOMIC_CACHE:
        return _CYCLOTOMIC_CACHE[m]
    num = IntPoly([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            num, rem = num.divmod_monic(cyclotomic(d))
            if not rem.is_zero():
                raise AssertionError("cyclotomic division must be exact")
    _CYCLOTOMIC_CACHE[m] = num
    return num


_ADMISSIBLE_CACHE: dict[int, list[int]] = {}


def _admissible_cyclotomic_orders(n: int):
    """Every m with phi(m) <= n, increasing."""
    if n not in _ADMISSIBLE_CACHE:
        # phi(m) >= sqrt(m/2), so phi(m) <= n forces m <= 2 n^2.
        _ADMISSIBLE_CACHE[n] = [m for m in range(1, 2 * n * n + 2)
                                if euler_phi(m) <= n]
    return _ADMISSIBLE_CACHE[n]


def finite_order_test(a: IntMatrix, projective: bool = False):
    """Minimal k with A^k = I (or A^k = +-I when projective), else None.

    The characteristic polynomial is factored by trial division with each
    cyclotomic polynomial Phi_m, phi(m) <= n, in increasing m; if it is not
    a product of them, A has infinite order.  Otherwise let L be the lcm of
    the indices m found.  A has finite order iff A^L = I (this rejects
    non-semisimple cases such as unipotent shears), and then its order is
    exactly L.  For even L, P = A^(L/2) is computed once: P = -I gives
    projective order L/2, and otherwise A^L = P*P.  The projective order is
    L in every other case.  This is a decision procedure, not an iteration
    cutoff.
    """
    if mat_det(a) not in (1, -1):
        raise NotUnimodular("finite_order_test requires determinant +-1")
    remaining = char_poly(a)
    orders = set()
    for m in _admissible_cyclotomic_orders(a.n):
        phi_m = cyclotomic(m)
        while phi_m.degree <= remaining.degree:
            quot, rem = remaining.divmod_monic(phi_m)
            if not rem.is_zero():
                break
            remaining = quot
            orders.add(m)
        if remaining.degree == 0:
            break
    else:
        return None
    # A^L = I makes A diagonalisable over C, with a primitive m-th root of
    # unity among its eigenvalues for each m found, so its order is exactly
    # L.  A^k = -I gives A^(2k) = I, so L | 2k: only k = L/2 can beat L, and
    # for odd L no k can.
    big = lcm(*orders)
    ident = IntMatrix.identity(a.n)
    if big % 2:
        return big if mat_pow(a, big) == ident else None
    half = mat_pow(a, big // 2)
    if half == -ident:
        return big // 2 if projective else big
    if mat_mul(half, half) != ident:
        return None
    return big
