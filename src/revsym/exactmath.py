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

from functools import cache
from itertools import chain, count
from math import isqrt, lcm, prod
from operator import mul

RECIPROCAL_DIRECT = "direct"
RECIPROCAL_UP_TO_SIGN = "up-to-sign"
RECIPROCAL_NONE = "none"


class NotUnimodular(ValueError):
    """Raised when a matrix with determinant outside {+1, -1} is passed to an
    operation that requires an integer inverse."""


class _Immutable:
    """Base of the immutable values.  `_fill` sets the fields: the public
    constructor calls it after its checks, and the kernels call `_trusted`,
    which skips them, on ints computed from checked ints.  Copies and
    pickles are rebuilt from the slots by `_rebuild`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return _rebuild, (type(self), _Record._fields(self))

    @classmethod
    def _trusted(cls, *fields):
        self = object.__new__(cls)
        self._fill(*fields)
        return self


def _rebuild(cls, fields):
    """The `cls` value whose slots hold `fields`, past `_Immutable`'s guard."""
    self = object.__new__(cls)
    _Record._fill(self, *fields)
    return self


class _Record:
    """Dataclass-style ==, hash and repr over the fields `__slots__` names,
    without `dataclasses` (which loads `inspect`); a frozen record is also
    an `_Immutable`, and a mutable one sets `__hash__ = None`."""

    __slots__ = ()

    def _fields(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)  # past _Immutable's guard

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = map("{}={!r}".format, self.__slots__, self._fields())
        return f"{type(self).__qualname__}({', '.join(fields)})"


class IntMatrix(_Immutable):
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
        self._fill(rows)

    def _fill(self, rows):
        """Set the fields from a square tuple of int tuples."""
        object.__setattr__(self, "n", len(rows))
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __neg__(self):
        return IntMatrix._trusted(tuple([tuple([-v for v in row])
                                         for row in self.rows]))

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    def scaled(self, k: int) -> "IntMatrix":
        rows = tuple([tuple([k * v for v in row]) for row in self.rows])
        if not isinstance(k, int):
            return IntMatrix(rows)  # refuses the non-int entries
        return IntMatrix._trusted(rows)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]!r})"


def _product(rows, cols):
    """Rows of A B as tuples, from the rows of A and the columns of B:
    in closed form at n = 2, as in `mat_det`, else as sums of products."""
    if len(rows) == 2:
        (a, b), (c, d) = rows
        (e, g), (f, h) = cols
        return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols])
                  for row in rows])


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Exact matrix product."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    return IntMatrix._trusted(_product(a.rows, tuple(zip(*b.rows))))


def _bareiss(m):
    """Determinant of the square list of integer lists m, which it
    overwrites, by fraction-free Gaussian elimination (Bareiss)."""
    n = len(m)
    sign = prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            i = next((i for i in range(k + 1, n) if m[i][k]), k)
            if i == k:
                return 0
            m[k], m[i], sign = m[i], m[k], -sign
        pivot, p, cols = m[k], m[k][k], range(k + 1, n)
        for row in m[k + 1:]:
            q = row[k]
            for j in cols:
                row[j] = (row[j] * p - q * pivot[j]) // prev
        prev = p
    return sign * m[-1][-1]


def mat_det(a: IntMatrix) -> int:
    """Exact determinant: closed form for n = 2, else Bareiss on a copy."""
    r = a.rows
    if a.n == 2:
        return r[0][0] * r[1][1] - r[0][1] * r[1][0]
    return _bareiss([list(row) for row in r])


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

    At n = 2 it is det(A) * adj(A), in closed form as in `mat_det`, since
    1/det(A) = det(A).  Else unimodular row operations take [A | I] to its
    Hermite form [U A | U]; every pivot of the left block is 1 exactly when
    A is unimodular, and then U A = I, so the right block is A^-1.
    """
    n = a.n
    if n == 2:
        (p, q), (r, s) = a.rows
        d = p * s - q * r
        if d not in (1, -1):
            raise NotUnimodular(f"determinant is {d}, not +-1")
        return IntMatrix._trusted(((d * s, -d * q), (-d * r, d * p)))
    rows = _hnf_rows([row + tuple(int(i == j) for j in range(n))
                      for i, row in enumerate(a.rows)])
    if any(rows[i][i] != 1 for i in range(n)):
        raise NotUnimodular(f"determinant is {mat_det(a)}, not +-1")
    return IntMatrix._trusted(tuple([row[n:] for row in rows]))


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    """Exact k-th power; negative k uses the unimodular inverse."""
    if k < 0:
        return mat_pow(mat_inverse_unimodular(a), -k)
    if k < 2:
        return a if k else IntMatrix.identity(a.n)
    rows = a.rows
    square = _product(rows, tuple(zip(*rows)))
    return IntMatrix._trusted(_power(rows, square, k))


def _power(rows, square, k):
    """Rows of A^k, k >= 2, from the rows of A and of A^2, by the
    left-to-right ladder from the leading bit, whose first squaring is the
    given A^2: no product with I, and none for A^2 itself."""
    cols = tuple(zip(*rows))
    result = square
    for i, bit in enumerate(bin(k)[3:]):
        if i:
            result = _product(result, tuple(zip(*result)))
        if bit == "1":
            result = _product(result, cols)
    return result


def _terms_text(terms) -> str:
    """Polynomial text from nonzero (coefficient, list of factors) terms in
    print order: "-x - 2*y + 1" style, no unit coefficient before factors,
    and "0" for no terms."""
    parts = []
    for c, factors in terms:
        body = "*".join(factors if factors and abs(c) == 1
                        else [str(abs(c))] + factors)
        if parts:
            parts.append(("- " if c < 0 else "+ ") + body)
        else:
            parts.append("-" + body if c < 0 else body)
    return " ".join(parts) or "0"


class IntPoly(_Immutable):
    """Dense univariate integer polynomial, little-endian coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError("coefficients must be int")
        self._fill(coeffs)

    def _fill(self, coeffs):
        """Set the coefficients from a list of ints, trailing zeros
        dropped."""
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def sign_alternated(self) -> "IntPoly":
        """(-1)^d * p(-x), monic again when p is monic."""
        d = self.degree
        return IntPoly._trusted([-c if (d - i) & 1 else c
                                 for i, c in enumerate(self.coeffs)])

    def to_text(self) -> str:
        return _terms_text((c, [f"x^{i}" if i > 1 else "x"] if i else [])
                           for i, c in reversed(list(enumerate(self.coeffs)))
                           if c)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"


def _divmod_monic(num, den):
    """Quotient and remainder lists of the little-endian coefficients `num`
    by the monic `den`, exact over Z; the remainder keeps its low
    len(den) - 1 entries (fewer when num is shorter), zeros included."""
    rem = list(num)
    d = len(den) - 1
    low = den[:d]  # the leading 1 only clears rem[i], which is not returned
    quot = [0] * max(len(rem) - d, 0)
    for i in range(len(rem) - 1, d - 1, -1):
        q = rem[i]
        if q:
            quot[i - d] = q
            for j, c in enumerate(low, i - d):
                rem[j] -= q * c
    return quot, rem[:d]


def char_poly(a: IntMatrix) -> IntPoly:
    """Monic characteristic polynomial det(xI - A).

    At n = 2 it is x^2 - t*x + det(A), t = trace(A), as Cayley-Hamilton
    says.  Else it is `_char_coeffs` from the rows of A and of A^2.
    """
    if a.n == 2:
        return IntPoly._trusted([mat_det(a), -a.trace(), 1])
    rows = a.rows
    square = _product(rows, tuple(zip(*rows)))
    return IntPoly._trusted(_char_coeffs(rows, square))


def _char_coeffs(rows, square):
    """Little-endian coefficients of det(xI - A), from the rows of A and of
    A^2, n != 2, by the Faddeev-LeVerrier recurrence M_k = A M_(k-1) + c I.

    It starts from A M_2 = A^2 - t*A, t = trace(A), so the caller's A^2 saves
    a product; its trace is t^2 - 2*e_2, so the next coefficient e_2 is an
    integer (at n = 1 there is no e_2, and det(xI - A) is x - t).  Each later step takes one product: A M_k is kept for the next
    step and its trace gives the next coefficient, and the last trace is
    read off the diagonal without forming the product.  The steps run on
    plain tuples of rows, and the trace divisions are exact over Z, so no
    rationals appear.
    """
    n = len(rows)
    t = sum(rows[i][i] for i in range(n))
    am = tuple([tuple([s - t * v for s, v in zip(srow, row)])
                for srow, row in zip(square, rows)])
    c = [0] * (n + 1)
    c[n], c[n - 1] = 1, -t
    if n > 1:
        c[n - 2] = -sum(am[i][i] for i in range(n)) // 2
    for k in range(3, n + 1):
        coef = c[n - k + 1]
        cols = [col[:j] + (col[j] + coef,) + col[j + 1:]
                for j, col in enumerate(zip(*am))]
        if k < n:
            am = _product(rows, cols)
            tr = sum(am[i][i] for i in range(n))
        else:
            tr = sum(sum(map(mul, row, col)) for row, col in zip(rows, cols))
        if tr % k != 0:
            raise AssertionError("Faddeev-LeVerrier division must be exact")
        c[n - k] = -tr // k
    return c


def _resultant(p, q):
    """Res(p, q) = prod (r - s) over the roots r of p and s of q, for two
    monic polynomials of one degree n >= 1 given as little-endian
    coefficient tuples: the determinant of the 2n x 2n Sylvester matrix, by
    `_bareiss`.  It is 0 exactly when p and q share a root."""
    n = len(p) - 1
    return _bareiss([[0] * i + list(f[::-1]) + [0] * (n - 1 - i)
                     for f in (p, q) for i in range(n)])


def _inverse_poly(p: IntPoly) -> IntPoly:
    """The characteristic polynomial of f^-1, from that p of a unimodular f,
    with no matrix product: p(0) times the reversal of p."""
    head = p.coeffs[0]
    return IntPoly._trusted([head * c for c in reversed(p.coeffs)])


def reciprocity_class(p: IntPoly) -> str:
    """Whether x^d*p(1/x) equals p (direct), -p (up-to-sign), or neither:
    the first two are the p equal to `_inverse_poly(p)`, as a unimodular
    matrix conjugate to its inverse needs, told apart by p(0) = 1 or -1."""
    if p.degree < 1 or not p.is_monic():
        raise ValueError("polynomial must be monic of degree >= 1")
    if _inverse_poly(p) != p:
        return RECIPROCAL_NONE
    return RECIPROCAL_DIRECT if p.coeffs[0] == 1 else RECIPROCAL_UP_TO_SIGN


# The cap on n of `numth`, kept here so that the prime table below is sized
# from it without this module importing `numth`.
_MAX_N = 10 ** 7


@cache
def _odd_primes():
    """The odd primes p with p^2 <= `_MAX_N`, increasing: a sieve of
    Eratosthenes, run on the first factorisation, not at import."""
    limit = isqrt(_MAX_N)
    sieve = bytearray([1]) * (limit + 1)
    for p in range(3, isqrt(limit) + 1, 2):
        if sieve[p]:
            sieve[p * p::2 * p] = bytes(len(sieve[p * p::2 * p]))
    return tuple(p for p in range(3, limit + 1, 2) if sieve[p])


def _prime_powers(n: int):
    """(p, p^k) for each prime power p^k exactly dividing n: 2^k = n & -n,
    then odd p by trial division.  The odd primes up to sqrt(`_MAX_N`) are
    listed once, on first use, and tried in turn; an n above `_MAX_N` goes
    on by odd numbers past them.  A generator, so a caller that needs only
    the first factor does no more division than finding it takes."""
    two = n & -n
    if n > 1 and two > 1:
        yield 2, two
        n //= two
    candidates = primes = _odd_primes()
    if n > _MAX_N:
        candidates = chain(primes, count(primes[-1] + 2, 2))
    for p in candidates:
        if p * p > n:
            break
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            yield p, q
    if n > 1:
        yield n, n


def euler_phi(m: int) -> int:
    return prod(q - q // p for p, q in _prime_powers(m))


@cache
def cyclotomic(m: int) -> IntPoly:
    """m-th cyclotomic polynomial by exact division of x^m - 1."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _divmod_monic(num, cyclotomic(d).coeffs)
            if any(rem):
                raise AssertionError("cyclotomic division must be exact")
    return IntPoly._trusted(num)


@cache
def _admissible_cyclotomics(n: int):
    """(m, coefficients of Phi_m) for every m with phi(m) <= n, increasing."""
    # phi(m) >= sqrt(m/2), so phi(m) <= n forces m <= 2 n^2.
    return tuple((m, cyclotomic(m).coeffs) for m in range(1, 2 * n * n + 2)
                 if euler_phi(m) <= n)


@cache
def _signed_identity(n: int):
    """Rows of I and of -I at dimension n."""
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return ident, tuple(tuple(-v for v in row) for row in ident)


def _order_2x2(rows, projective):
    """`finite_order_test` at n = 2, from the trace and determinant."""
    (p, q), (r, s) = rows
    d, t = p * s - q * r, p + s
    if d not in (1, -1):
        raise NotUnimodular("finite_order_test requires determinant +-1")
    if d == -1:
        return 2 if t == 0 else None
    if t == 0:
        return 2 if projective else 4
    if t == 1:
        return 3 if projective else 6
    if t == -1:
        return 3
    if q or r:  # |t| >= 2 and not diagonal
        return None
    return 1 if p == 1 or projective else 2  # det 1 and diagonal: +-I


def finite_order_test(a: IntMatrix, projective: bool = False):
    """Minimal k with A^k = I (or A^k = +-I when projective), else None.

    At n = 2 the answer comes from t = trace(A) and det(A) alone, by
    Cayley-Hamilton, A^2 = t*A - det(A)*I.  With det -1, t = 0 gives
    A^2 = I, order 2 in both groups, and else the eigenvalues are real and
    not 1 and -1, so the order is infinite.  With det 1, t = 0, 1, -1 give
    A^2 = -I, A^3 = -I and A^3 = I: orders 4, 6 and 3 (2, 3 and 3
    projectively).  t = +-2 gives (A -+ I)^2 = 0, so only +-I has finite
    order, and |t| > 2 gives a real eigenvalue off the unit circle.

    At other n, a matrix of finite order is diagonalisable over C and its
    eigenvalues are roots of unity, and so are those of its square, so
    |trace A| > n proves infinite order at once.  A^2 comes first, on plain
    rows, as most reversors square to +-I: A^2 = I gives order 1 (A = I,
    or A = +-I when projective) or 2, and A^2 = -I gives 2 when projective
    and 4 otherwise.  Past that, |trace A^2| >= n proves infinite order:
    n roots of unity sum to an integer of modulus n only when all equal 1
    or all equal -1, which would make A^2 = +-I.  Else the characteristic
    polynomial, which `_char_coeffs` takes from A and that A^2, is factored
    by trial division with each cyclotomic Phi_m, phi(m) <= n, in
    increasing m, on plain coefficient lists; if it is not a product of
    them, A has infinite order.  Otherwise let L be the lcm of the indices
    m found; L > 2, as factors Phi_1 and Phi_2 alone would give trace
    A^2 = n.  A has finite order iff A^L = I (this rejects non-semisimple
    cases such as shears), and then its order is exactly L.  Powers of A
    come from the ladder that starts at that A^2 (`_power`).  For even L,
    P = A^(L/2) is computed once: P = -I gives projective order L/2, and
    otherwise A^L = P*P.  The projective order is L in every other case.
    This is a decision, not a cutoff.

    The determinant is checked here, and the rest is `_order`, which a
    caller that has already checked it calls directly.
    """
    if a.n != 2 and mat_det(a) not in (1, -1):
        raise NotUnimodular("finite_order_test requires determinant +-1")
    return _order(a, projective)


def _order(a: IntMatrix, projective: bool):
    """`finite_order_test` for a matrix whose determinant is known to be
    +-1 (the n = 2 closed form still reads it, and checks it)."""
    n, rows = a.n, a.rows
    if n == 2:
        return _order_2x2(rows, projective)
    if abs(a.trace()) > n:
        return None
    ident, neg = _signed_identity(n)
    square = _product(rows, tuple(zip(*rows)))
    if square == ident:
        return 1 if rows == ident or (projective and rows == neg) else 2
    if square == neg:
        return 2 if projective else 4
    if abs(sum(square[i][i] for i in range(n))) >= n:
        return None
    remaining = _char_coeffs(rows, square)
    orders = set()
    for m, phi_m in _admissible_cyclotomics(n):
        while len(phi_m) <= len(remaining):
            quot, rem = _divmod_monic(remaining, phi_m)
            if any(rem):
                break
            remaining = quot
            orders.add(m)
        if len(remaining) == 1:
            break
    else:
        return None
    # A^L = I makes A diagonalisable over C, with a primitive m-th root of
    # unity among its eigenvalues for each m found, so its order is exactly
    # L.  A^k = -I gives A^(2k) = I, so L | 2k: only k = L/2 can beat L, and
    # for odd L no k can.
    big = lcm(*orders)
    if big % 2:
        return big if _power(rows, square, big) == ident else None
    half = _power(rows, square, big // 2)
    if half == neg:
        return big // 2 if projective else big
    if _product(half, tuple(zip(*half))) != ident:
        return None
    return big
