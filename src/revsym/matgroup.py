"""Reversibility analysis for elements of GL(n,Z) and PGL(n,Z).

An element r of the ambient group reverses f when r f r^-1 = f^-1; elements
commuting with f are its symmetries.  This module decides and classifies
these relations with exact integer arithmetic:

* symmetry / reversor predicates (projective variants compare up to sign);
* the integer lattice of intertwiners {X : X A = B X}, computed through an
  exact integer kernel, which turns reversor search into a low-rank
  coefficient enumeration instead of a search over raw matrix entries;
* that enumeration keeps the X = sum c_i B_i with det X = +-1 in a box
  |c_i| <= b, with b cut until (2b+1)^rank fits 2,000,000 points, and at
  n >= 3 in the first box b = 0, 1, ... that holds one.  On a rank-2
  lattice of 2x2 matrices det X is a binary quadratic form in (c1, c2),
  and each row c1 is solved for c2 exactly, so the box costs O(b).
  Elsewhere det X is an integer polynomial of degree <= n in each c_i, so
  a Bareiss determinant is taken only on a corner grid of
  min(n+1, 2b+1)^rank points, walked depth first on partial sums of rows
  (and in half when it is the whole box, as det(-X) = (-1)^n det X), and
  every other value in the box follows exactly from backward-difference
  tables; a matrix is built only where the value is +-1;
* an exact decision of whether an integral binary quadratic form takes the
  value +-1 (reduction cycle, Gauss reduction or linear factors, by the
  kind of form).  For 2x2 matrices det is such a form on each rank-2
  intertwiner lattice; reversor search and conjugacy fall back on it when
  their box holds none, so both are exact at every bound.  The norm form
  of the commutant Z[M0] (M = c*I + k*M0, k maximal) yields its
  fundamental generator, with no search bound;
* the case of the reversing symmetry group of a 2x2 integer matrix of
  infinite order, read from the orders of reversors r and r g: all
  involutions, all of order 4, or both orders present;
* an orchestrating `analyze` that produces a full ReversibilityReport; a
  characteristic polynomial that is not self-reciprocal proves
  irreversibility outright, before any search.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, isqrt
from operator import add, attrgetter, sub

from .exactmath import (
    IntMatrix,
    IntPoly,
    NotUnimodular,
    RECIPROCAL_NONE,
    _Immutable,
    _bareiss,
    _hnf_rows,
    _reduce_column,
    char_poly,
    finite_order_test,
    mat_det,
    mat_inverse_unimodular,
    mat_mul,
    reciprocity_class,
)

STATUS_CLASSIFIED = "classified"
STATUS_IRREVERSIBLE = "irreversible-proven"
STATUS_INCONCLUSIVE = "inconclusive-up-to-bound"
STATUS_TRIVIAL = "trivially-reversible"

CASE_DINF = "dinf"
CASE_ONE = "case1"
CASE_TWO = "case2"
CASE_THREE = "case3"
CASE_UNCLASSIFIED = "reversible-unclassified"

_MAX_ENUMERATION = 2_000_000


class _Record:
    """Dataclass-style ==, hash and repr over `__slots__`; no `dataclasses`."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)  # past _Immutable's guard

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = map("{}={!r}".format, self.__slots__, self._fields(self))
        return f"{type(self).__qualname__}({', '.join(fields)})"


class GroupContext(_Immutable, _Record):
    """Ambient matrix group: GL(n,Z), or PGL(n,Z) when projective."""

    __slots__ = ("n", "projective")

    def __init__(self, n: int, projective: bool = False):
        if n < 2:
            raise ValueError("context dimension must be >= 2")
        self._fill(n, projective)

    def __hash__(self):  # the lattice cache hashes it on every `analyze`
        return hash((self.n, self.projective))


def canonical_sign(a: IntMatrix) -> IntMatrix:
    """Representative with the first nonzero entry (row-major) positive."""
    lead = next((v for row in a.rows for v in row if v), 0)
    return -a if lead < 0 else a


def ctx_eq(a: IntMatrix, b: IntMatrix, ctx: GroupContext) -> bool:
    return a == b or (ctx.projective and a == -b)


def _check_element(m: IntMatrix, ctx: GroupContext):
    if m.n != ctx.n:
        raise ValueError(f"dimension mismatch: element is {m.n}x{m.n} in a "
                         f"{ctx.n}-dimensional context")
    if mat_det(m) not in (1, -1):
        raise NotUnimodular("element is not unimodular")


def is_symmetry(s: IntMatrix, f: IntMatrix, ctx: GroupContext) -> bool:
    """True iff s f s^-1 = f (up to overall sign in the projective case)."""
    _check_element(s, ctx)
    _check_element(f, ctx)
    return ctx_eq(mat_mul(s, f), mat_mul(f, s), ctx)


def is_reversor(r: IntMatrix, f: IntMatrix, ctx: GroupContext) -> bool:
    """True iff r f r^-1 = f^-1 (up to overall sign in the projective case)."""
    _check_element(r, ctx)
    _check_element(f, ctx)
    finv = mat_inverse_unimodular(f)
    return ctx_eq(mat_mul(r, f), mat_mul(finv, r), ctx)


# ---------------------------------------------------------------------------
# Integer kernels and intertwiner lattices


def _integer_kernel(rows, ncols):
    """Basis of {x in Z^ncols : rows . x = 0} via unimodular row reduction of
    the stacked matrix [A^T | I]."""
    m = len(rows)
    work = [[rows[i][j] for i in range(m)] +
            [1 if k == j else 0 for k in range(ncols)]
            for j in range(ncols)]
    pivot = 0
    for col in range(m):
        if _reduce_column(work, pivot, col):
            pivot += 1
    return [tuple(row[m:]) for row in work[pivot:]]


def intertwiner_lattice(a: IntMatrix, b: IntMatrix) -> list[IntMatrix]:
    """Canonical basis of the lattice {X integer n x n : X A = B X}.

    The linear conditions are solved exactly over Z, so the returned basis
    spans the full solution module (the lattice may be empty).
    """
    if mat_det(a) not in (1, -1) or mat_det(b) not in (1, -1):
        raise NotUnimodular("intertwiner_lattice requires unimodular inputs")
    if a.n != b.n:
        raise ValueError("dimension mismatch")
    n = a.n
    rows = []
    for i in range(n):
        for j in range(n):
            coef = [0] * (n * n)
            for k in range(n):
                coef[i * n + k] += a.rows[k][j]
                coef[k * n + j] -= b.rows[i][k]
            rows.append(coef)
    kernel = _hnf_rows(_integer_kernel(rows, n * n))
    return [IntMatrix._trusted(tuple([vec[i * n:(i + 1) * n]
                                      for i in range(n)]))
            for vec in kernel]


def _combination(basis, coeffs, n):
    """sum c_i B_i: entry by entry for two 2x2 matrices, else row by row."""
    if n == 2 and len(basis) == 2:
        (c1, c2), ((a, b), (c, d)), ((e, f), (g, h)) = (
            coeffs, basis[0].rows, basis[1].rows)
        return IntMatrix._trusted(((c1 * a + c2 * e, c1 * b + c2 * f),
                                   (c1 * c + c2 * g, c1 * d + c2 * h)))
    rows = [[0] * n for _ in range(n)]
    for c, mat in zip(coeffs, basis):
        if c:
            for i in range(n):
                row = mat.rows[i]
                out = rows[i]
                for j in range(n):
                    out[j] += c * row[j]
    return IntMatrix._trusted(tuple(map(tuple, rows)))


def _extend(samples, count):
    """Yield p(0), ..., p(count-1) given p(0), ..., p(h-1), h = len(samples)
    <= count, for a polynomial p of degree < h.

    Each sample is a list of integers and is extended componentwise.  Past
    the samples, a table of backward differences at the last point is
    advanced one step at a time; the (h-1)-th difference is constant, so each
    step is integer additions only and the values are exact.
    """
    h = len(samples)
    yield from samples
    diffs = [samples[-1]]
    level = samples
    for _ in range(h - 1):
        level = [list(map(sub, b, a)) for a, b in zip(level, level[1:])]
        diffs.append(level[-1])
    for _ in range(count - h):
        for k in range(h - 2, -1, -1):
            diffs[k] = list(map(add, diffs[k], diffs[k + 1]))
        yield diffs[0]


def _extend_box(corner, rank, h, side):
    """Values over {0..side-1}^rank of a polynomial of degree < h in each
    variable, from its values over the corner {0..h-1}^rank (a flat list in
    itertools.product order), h <= side.

    Yields one row of `side` values, along the last variable, per prefix of
    the other variables, in itertools.product order.  The last variable is
    extended first, for all h^(rank-1) corner rows at once; the rows are then
    extended along the other variables, first to last, on one slice at a
    time.  So O(rank * h^rank * side) values are held, never the box, and
    every addition acts on a whole row.
    """
    if h == side:  # the corner is the box
        yield from (corner[i:i + side] for i in range(0, len(corner), side))
        return
    columns = _extend([corner[j::h] for j in range(h)], side)
    rows = [v for row in zip(*columns) for v in row]
    yield from _extend_rows(rows, rank - 1, h, side)


def _extend_rows(rows, rank, h, side):
    """Extend h^rank rows of `side` values (one flat list, in
    itertools.product order of their prefixes) along the prefix variables;
    yield the side^rank rows in the same order."""
    if rank == 0:
        yield rows
        return
    step = h ** (rank - 1) * side
    for piece in _extend([rows[i * step:(i + 1) * step] for i in range(h)],
                         side):
        yield from _extend_rows(piece, rank - 1, h, side)


def _corner_dets(basis, bound, h):
    """det(sum c_i B_i) for c over the corner grid [-b, -b+h)^rank, as a
    flat list in itertools.product order.

    Each node of a depth-first walk adds its precomputed c*B_i rows to its
    parent's partial sum, and each leaf takes a Bareiss determinant.  On the
    whole box (h = 2b+1), c -> -c reverses the order and det(-X) is
    (-1)^n det X: the half up to c = 0 is walked and the rest mirrored.
    """
    n = basis[0].n
    steps = [[[[c * v for v in row] for row in mat.rows]
              for c in range(-bound, h - bound)] for mat in basis]
    mirrored = h == 2 * bound + 1
    values = []

    def walk(partial, depth, half):
        level = steps[depth][:bound + 1] if half else steps[depth]  # c <= 0
        for c, step in enumerate(level, -bound):
            rows = [list(map(add, r, s)) for r, s in zip(partial, step)]
            if depth + 1 < len(steps):
                walk(rows, depth + 1, half and c == 0)
            else:
                values.append(_bareiss(rows))

    walk([[0] * n for _ in range(n)], 0, mirrored)
    if mirrored:  # values[-1] is det 0 at c = 0, the centre of the box
        values += [(-1) ** n * v for v in reversed(values[:-1])]
    return values


def _grid_hits(basis, bound):
    """Coefficients c in [-b, b]^rank, in sorted order, where the corner
    grid and its finite differences give det(sum c_i B_i) = +-1."""
    rank = len(basis)
    side = 2 * bound + 1
    h = min(basis[0].n + 1, side)
    corner = _corner_dets(basis, bound, h)
    prefixes = itertools.product(range(-bound, bound + 1), repeat=rank - 1)
    for prefix, row in zip(prefixes, _extend_box(corner, rank, h, side)):
        if 1 not in row and -1 not in row:
            continue
        for j, v in enumerate(row):
            if v in (1, -1):
                yield prefix + (j - bound,)


def _det_form(basis):
    """(det B1, det(B1 + B2) - det B1 - det B2, det B2) for a rank-2 lattice
    of 2x2 matrices: the coefficients of the binary quadratic form
    det(c1*B1 + c2*B2) in (c1, c2)."""
    b1, b2 = basis
    a, c = mat_det(b1), mat_det(b2)
    return a, mat_det(b1 + b2) - a - c, c


def _form_row(form, c1, bound):
    """The c2 in [-b, b], increasing, with a*c1^2 + b*c1*c2 + c*c2^2 = +-1
    for form = (a, b, c): the roots of a quadratic in c2 by an exact square
    root of its discriminant, of a linear one when c = 0, and the whole row
    when the row is constant."""
    a, b, c = form
    lin, const = b * c1, a * c1 * c1
    roots = set()
    for e in (1, -1):
        if c:
            disc = lin * lin - 4 * c * (const - e)
            if _is_square(disc):
                s = isqrt(disc)
                roots.update(num // (2 * c) for num in (s - lin, -s - lin)
                             if num % (2 * c) == 0)
        elif lin:
            if (e - const) % lin == 0:
                roots.add((e - const) // lin)
        elif const == e:
            return range(-bound, bound + 1)
    return sorted(y for y in roots if -bound <= y <= bound)


def _enumerate_unimodular(lattices, bound):
    """Yield (lattice_index, coeffs, X) for all bounded integer combinations
    X = sum c_i B_i with det X = +-1, in sorted coefficient order.

    On a rank-2 lattice of 2x2 matrices det X is the binary quadratic form
    of `_det_form`, and each row c1 of the box is solved for c2 exactly
    (`_form_row`), in O(b) work for the box.  Elsewhere det(sum c_i B_i) is
    an integer polynomial of degree <= n in each c_i (every row of X is
    linear in c_i).  It is therefore computed with a Bareiss determinant
    only on the corner grid [-b, -b+h)^rank, with h = min(n+1, 2b+1),
    walked depth first and, on the whole box, in half (`_corner_dets`); its
    value on the rest of the box follows exactly from those samples by
    integer finite differences (`_extend_box`).  A matrix is built, and its
    determinant re-checked, only where the value is +-1.
    """
    for idx, basis in enumerate(lattices):
        if not basis or bound < 0:  # a negative bound gives an empty box
            continue
        n = basis[0].n
        if n == 2 and len(basis) == 2:
            form = _det_form(basis)
            hits = ((c1, c2) for c1 in range(-bound, bound + 1)
                    for c2 in _form_row(form, c1, bound))
        else:
            hits = _grid_hits(basis, bound)
        for coeffs in hits:
            x = _combination(basis, coeffs, n)
            if mat_det(x) in (1, -1):
                yield idx, coeffs, x


def _intertwiner_lattices(a: IntMatrix, b: IntMatrix, ctx: GroupContext):
    """Bases of {X : X a = b X}, and of {X : X a = -b X} when projective."""
    lattices = [intertwiner_lattice(a, b)]
    if ctx.projective:
        lattices.append(intertwiner_lattice(a, -b))
    return lattices


@lru_cache(maxsize=1)
def _reversor_lattices(f: IntMatrix, ctx: GroupContext):
    """Reversor lattices of f, kept for the `search_reversors` of analyze."""
    return _intertwiner_lattices(f, mat_inverse_unimodular(f), ctx)


def _box_bound(lattices, bound):
    """The largest b <= bound whose box on the largest lattice fits the cap."""
    rank = max(map(len, lattices))
    while rank and (2 * bound + 1) ** rank > _MAX_ENUMERATION:
        # down to the float root's bound, then one step per rounding error
        bound = min(bound - 1, int(_MAX_ENUMERATION ** (1 / rank)) // 2)
    return bound


def _unimodular_points(lattices, bound):
    """Unimodular X in the lattices, for the bound cut by `_box_bound`: at
    n >= 3 the hits of `_enumerate_unimodular` in the first box b = 0, 1,
    ... that has any; at n = 2 those of the box, or if none, one
    c1*B1 + c2*B2 from the first rank-2 lattice whose determinant form
    (`_det_form`) takes +-1 at (c1, c2)."""
    bound = _box_bound(lattices, bound)
    n = next((basis[0].n for basis in lattices if basis), 2)
    for b in range(bound + 1) if n > 2 else (bound,):
        x = None
        for _, _, x in _enumerate_unimodular(lattices, b):
            yield x
        if x is not None:
            return
    for basis in lattices:
        if len(basis) == 2 and basis[0].n == 2:
            sol = _represent_unit(*_det_form(basis))
            if sol is not None:
                yield _combination(basis, sol, 2)
                return


def search_reversors(f: IntMatrix, ctx: GroupContext, coeff_bound: int):
    """Unimodular elements of the reversor lattice(s), with their orders.

    Solves X f = f^-1 X (and X f = -f^-1 X in the projective case) over Z
    and keeps, in sorted coefficient order, the unimodular combinations with
    coefficients bounded by `coeff_bound`, cut to fit the enumeration cap:
    for 2x2 f the whole box (or one from the determinant form), and an empty
    result is exact; for n >= 3 the first box that holds one, and an empty
    result is relative to the cut bound.  Each reversor is returned with its
    order (None = infinite), deduplicated up to sign when projective.
    """
    _check_element(f, ctx)
    lattices = _reversor_lattices(f, ctx)
    found = {}
    for x in _unimodular_points(lattices, coeff_bound):
        rep = canonical_sign(x) if ctx.projective else x
        if rep not in found:
            found[rep] = finite_order_test(rep, ctx.projective)
    return list(found.items())


def find_conjugator(a: IntMatrix, b: IntMatrix, ctx: GroupContext,
                    coeff_bound: int):
    """A unimodular X with X A X^-1 = B (up to sign when projective), or
    None.  For non-scalar 2x2 A and B, None is exact at every bound: an
    invertible X in an intertwiner lattice makes it a copy of the commutant
    of A, of rank 2, where the determinant form decides.  Otherwise None is
    relative to the cut bound, unless the lattices are empty."""
    _check_element(a, ctx)
    _check_element(b, ctx)
    lattices = _intertwiner_lattices(a, b, ctx)
    return next(_unimodular_points(lattices, coeff_bound), None)


# ---------------------------------------------------------------------------
# Binary quadratic forms


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _form_cycle(a: int, b: int, c: int):
    """Walk the indefinite form a*x^2 + b*x*y + c*y^2 of nonsquare
    discriminant D onto its cycle of reduced forms, then around it forever.

    The step is rho(a, b, c) = (c, r, (r^2 - D)/(4c)) with r = -b mod 2|c|
    normalised into (-|c|, |c|] when |c| > sqrt(D) and into
    (sqrt(D) - 2|c|, sqrt(D)) otherwise; it is the proper transform
    [[0, -1], [1, (b + r)/(2c)]].  Iterated, it reaches a reduced form,
    |sqrt(D) - 2|a|| < b < sqrt(D), and on reduced forms it is a permutation
    with one cycle per proper class: every reduced form properly equivalent
    to the input lies on it (Buchmann & Vollmer, Binary Quadratic Forms,
    ch. 6).  Yields (form, (x, y)) for each reduced form, where (x, y) is the
    first column of the accumulated transform, so the input takes the value
    form[0] at (x, y).
    """
    disc = b * b - 4 * a * c
    root = isqrt(disc)
    u = (1, 0, 0, 1)
    reduced = False
    while True:
        reduced = reduced or (0 < b <= root and disc < (b + 2 * abs(a)) ** 2
                              and max(0, 2 * abs(a) - b) ** 2 < disc)
        if reduced:
            yield (a, b, c), (u[0], u[2])
        k = abs(c)
        if k > root:
            r = -b % (2 * k)
            if r > k:
                r -= 2 * k
        else:
            r = root - (root + b) % (2 * k)
        s = (b + r) // (2 * c)
        a, b, c = c, r, (r * r - disc) // (4 * c)
        u = (u[1], s * u[1] - u[0], u[3], s * u[3] - u[2])


def _represent_unit(a: int, b: int, c: int):
    """A solution (x, y) of a*x^2 + b*x*y + c*y^2 = +-1, or None when the
    form takes neither value.

    Content > 1 (or the zero form) rules both values out.  Otherwise:

    * definite: Gauss reduction to |b| <= a <= c (after making a > 0), whose
      least nonzero value is a;
    * square discriminant: the form has a rational zero, so in a suitable
      basis it is y * (B*x + C*y), and B*x + C = +-1 is solved directly;
    * indefinite, nonsquare discriminant D >= 5: +-1 is represented iff a
      reduced form (+-1, b', c') is properly equivalent to this one, since
      every (+-1, b', c') with sqrt(D) - 2 < b' < sqrt(D) is reduced; so the
      cycle of `_form_cycle` decides it in one pass.
    """
    if gcd(a, b, c) != 1:
        return None
    disc = b * b - 4 * a * c
    if disc < 0:
        sign = 1 if a > 0 else -1
        a, b, c = sign * a, sign * b, sign * c
        u = (1, 0, 0, 1)
        while True:
            if abs(b) > a:
                s = (a - b) // (2 * a)
                b, c = b + 2 * a * s, a * s * s + b * s + c
                u = (u[0], u[0] * s + u[1], u[2], u[2] * s + u[3])
            elif a > c:
                a, b, c = c, -b, a
                u = (u[1], -u[0], u[3], -u[2])
            else:
                return (u[0], u[2]) if a == 1 else None
    if _is_square(disc):
        # a zero (p, q) of the form, completed to U = [[p, r], [q, s]] of
        # det 1, turns it into y * (lin*x + const*y)
        p, q, r, s = 1, 0, 0, 1
        if a != 0:
            p, q = isqrt(disc) - b, 2 * a
            g = gcd(p, q)
            p, q = p // g, q // g
            s = pow(p, -1, abs(q))
            r = (p * s - 1) // q
        lin = 2 * a * p * r + b * (p * s + q * r) + 2 * c * q * s
        const = a * r * r + b * r * s + c * s * s
        for e in (1, -1):
            if lin == 0 or (e - const) % lin == 0:
                x = 0 if lin == 0 else (e - const) // lin
                return p * x + r, q * x + s
        return None
    walk = _form_cycle(a, b, c)
    first, xy = next(walk)
    form = first
    while abs(form[0]) != 1:
        form, xy = next(walk)
        if form == first:
            return None
    return xy


# ---------------------------------------------------------------------------
# Commutant generators for 2x2 matrices


class SymmetryDescriptor(_Immutable, _Record):
    """Symmetry group of a 2x2 matrix in coordinates: a finite part of order
    `finite_part_order`, an infinite-order generator g, and the expression of
    the analyzed matrix as f_sign * g^f_exponent."""

    __slots__ = ("finite_part_order", "generator", "f_sign", "f_exponent")

    def __init__(self, finite_part_order: int, generator: IntMatrix,
                 f_sign: int, f_exponent: int):
        self._fill(finite_part_order, generator, f_sign, f_exponent)


def _dlog(s: IntMatrix, g: IntMatrix):
    """(sign, k) with s = sign * g^k and |k| least, or None if there is none.

    g must have infinite order and an irreducible characteristic polynomial,
    as every commutant generator of `symmetry_generator_2x2` has.  Then
    s = +-g^k forces |k| <= log_phi(|trace s| + 1): every unit > 1 of a real
    quadratic order is at least the golden ratio phi, so
    |trace g^k| >= phi^|k| - 1, and phi^2 > 2 makes the search below
    complete.
    """
    cap = 2 * (abs(s.trace()) + 1).bit_length()
    ginv = mat_inverse_unimodular(g)
    minus_s = -s
    pos = neg = IntMatrix._trusted(((1, 0), (0, 1)))
    for k in range(cap + 1):
        for mat, kk in ((pos, k), (neg, -k)) if k else ((pos, 0),):
            if mat == s:
                return (1, kk)
            if mat == minus_s:
                return (-1, kk)
        pos = mat_mul(pos, g)
        neg = mat_mul(neg, ginv)
    return None


def symmetry_generator_2x2(m: IntMatrix,
                           ctx: GroupContext) -> SymmetryDescriptor:
    """Fundamental infinite-order generator of the commutant of a 2x2 matrix.

    With k the content of m - m[0][0]*I, the commutant of m is Z[m0] for
    m0 = (m - m[0][0]*I)/k.  Its element x*I + y*m0 is unimodular exactly
    when x^2 + t0*x*y + d0*y^2 = +-1 with t0 = trace(m0), d0 = det(m0): the
    norm form of Z[m0].  Its solutions are +-eps^j for a fundamental unit
    eps, and two consecutive solutions on the reduction cycle of the form
    differ by eps.  Of eps and eps^-1, sign chosen so the trace is positive,
    the one with the smaller (max(|a|,|b|), a, b) is taken, where
    k*g = a*I + b*m; the generator is it or its inverse, so that
    m = f_sign * generator^f_exponent with f_exponent > 0.
    """
    if ctx.n != 2 or m.n != 2:
        raise ValueError("symmetry_generator_2x2 requires a 2x2 context")
    _check_element(m, ctx)
    if finite_order_test(m) is not None:
        raise ValueError("matrix must have infinite order")
    t = m.trace()
    if _is_square(t * t - 4 * mat_det(m)):
        raise ValueError("characteristic polynomial is reducible; the "
                         "commutant is not of the form a*I + b*m")
    return _commutant_generator(m, ctx)


def _commutant_generator(m: IntMatrix,
                         ctx: GroupContext) -> SymmetryDescriptor:
    """`symmetry_generator_2x2` for m already known to be a unimodular 2x2
    matrix of infinite order whose trace^2 - 4*det is not a square."""
    (m00, m01), (m10, m11) = m.rows
    k = gcd(m01, m10, m11 - m00)
    # m0 = [[0, b0], [c0, t0]], so trace(m0) = t0 and det(m0) = d0
    b0, c0, t0 = m01 // k, m10 // k, (m11 - m00) // k
    d0 = -b0 * c0
    hits = (u for form, u in _form_cycle(1, t0, d0) if abs(form[0]) == 1)
    (x1, y1), (x2, y2) = next(hits), next(hits)
    # eps = u2 / u1 in Z[m0], with u1^-1 = N(u1) * (x1 + t0*y1 - y1*m0)
    n1 = x1 * x1 + t0 * x1 * y1 + d0 * y1 * y1
    xi, yi = n1 * (x1 + t0 * y1), -n1 * y1
    eps = (x2 * xi - d0 * y2 * yi, x2 * yi + xi * y2 + t0 * y2 * yi)
    n_eps = eps[0] ** 2 + t0 * eps[0] * eps[1] + d0 * eps[1] ** 2
    candidates = []
    for x, y in (eps, (n_eps * (eps[0] + t0 * eps[1]), -n_eps * eps[1])):
        if 2 * x + t0 * y < 0:
            x, y = -x, -y
        a, b = k * x - m00 * y, y
        candidates.append((max(abs(a), abs(b)), a, b, x, y))
    *_, x, y = min(candidates)
    g = IntMatrix._trusted(((x, y * b0), (y * c0, x + y * t0)))
    sign, expo = _dlog(m, g)
    if expo < 0:
        g = mat_inverse_unimodular(g)
        expo = -expo
    return SymmetryDescriptor(
        finite_part_order=1 if ctx.projective else 2,
        generator=g, f_sign=sign, f_exponent=expo)


def discrete_log_in_symmetries(s: IntMatrix, desc: SymmetryDescriptor):
    """Express s as (sign, k) with s = sign * g^k, g the generator of a
    descriptor from `symmetry_generator_2x2`; exact, with no bound.

    Raises ValueError when s is not +-g^k for any integer k, and when g is
    not hyperbolic with an irreducible characteristic polynomial, where the
    search would not be complete.
    """
    g = desc.generator
    disc = g.trace() ** 2 - 4 * mat_det(g)
    if g.n != 2 or disc <= 0 or _is_square(disc):
        raise ValueError("the generator must be a hyperbolic 2x2 matrix "
                         "with an irreducible characteristic polynomial")
    res = _dlog(s, g)
    if res is None:
        raise ValueError("element is not +-g^k for any k")
    return res


def induced_automorphism(r: IntMatrix, s: IntMatrix,
                         ctx: GroupContext) -> IntMatrix:
    """Conjugation action sigma(s) = r s r^-1."""
    _check_element(r, ctx)
    _check_element(s, ctx)
    return mat_mul(mat_mul(r, s), mat_inverse_unimodular(r))


# ---------------------------------------------------------------------------
# Classification and reports


def pgl_reciprocity_ok(p: IntPoly) -> bool:
    """Necessary spectral condition for reversibility up to sign: the
    characteristic polynomial of the inverse must match that of +-M.  The
    reversal of p leads with p(0) = +-1, so of +-p and of +-(-1)^d p(-x) it
    can equal only the sign that leads with p(0): no normalisation by p(0)
    is needed."""
    if p.coeffs[0] not in (1, -1):
        raise ValueError("expected the characteristic polynomial of a "
                         "unimodular matrix")
    alt = p.sign_alternated()
    return (reciprocity_class(p) != RECIPROCAL_NONE
            or p.reversed_coeffs() in (alt, -alt))


# the GL case, keyed by the set of reversor orders that occur
_CASES = {frozenset({2}): CASE_ONE, frozenset({4}): CASE_TWO,
          frozenset({2, 4}): CASE_THREE}


def _classify_from(desc: SymmetryDescriptor, reversor,
                   ctx: GroupContext) -> str:
    """Case of the GL reversing symmetry group, read from the orders of the
    reversors r and r g, for a listed (r, order of r).  Every reversor is
    +-r g^k, and r g r^-1 = +-g^-1, so (r g^k)^2 is r^2 for every k, or
    (-1)^k r^2: between them, r and r g show every reversor order."""
    r, order = reversor
    rg = mat_mul(r, desc.generator)
    orders = frozenset((order, finite_order_test(rg, ctx.projective)))
    if orders not in _CASES:
        raise AssertionError("the orders of r and r g fit no case; the "
                             "commutant generator is not fundamental")
    return _CASES[orders]


class ReversibilityReport(_Record):
    __slots__ = ("matrix", "context", "order", "characteristic_polynomial",
                 "reciprocity", "sign_adjusted_reciprocity", "status",
                 "reversor_bound", "classification_case",
                 "symmetry_descriptor", "reversors", "irreversibility_reason")
    __hash__ = None  # mutable

    def __init__(self, matrix, context, order, characteristic_polynomial,
                 reciprocity, sign_adjusted_reciprocity, status,
                 reversor_bound, classification_case=None,
                 symmetry_descriptor=None, reversors=None,
                 irreversibility_reason=None):
        self._fill(matrix, context, order, characteristic_polynomial,
                   reciprocity, sign_adjusted_reciprocity, status,
                   reversor_bound, classification_case, symmetry_descriptor,
                   [] if reversors is None else reversors,
                   irreversibility_reason)


def analyze(m: IntMatrix, ctx: GroupContext,
            reversor_bound: int = 10) -> ReversibilityReport:
    """Full reversibility pipeline for one matrix.

    Computes order, characteristic polynomial and reciprocity data, searches
    for reversors over the intertwiner lattice with coefficients bounded by
    `reversor_bound`, and classifies the reversing symmetry group where the
    2x2 theory applies; the report holds the bound cut to fit the cap.  At
    n = 2 the search is exact, so a 2x2 input is never inconclusive, and at
    n >= 3 it lists the first box that holds a reversor.  Inputs of order 1
    or 2 are short-circuited:
    conjugating such f to its inverse is no condition at all, so the
    reversing symmetry group equals the symmetry group.  An input whose
    characteristic polynomial fails the reciprocity condition is proven
    irreversible without a search.
    """
    _check_element(m, ctx)
    cp = char_poly(m)
    rec = reciprocity_class(cp)
    pgl_rec = pgl_reciprocity_ok(cp)
    order = finite_order_test(m, ctx.projective)
    report = ReversibilityReport(
        matrix=m, context=ctx, order=order, characteristic_polynomial=cp,
        reciprocity=rec, sign_adjusted_reciprocity=pgl_rec,
        status=STATUS_INCONCLUSIVE, reversor_bound=reversor_bound)
    if order in (1, 2):
        report.status = STATUS_TRIVIAL
        return report

    if (m.n == 2 and order is None
            and not _is_square(m.trace() ** 2 - 4 * mat_det(m))):
        report.symmetry_descriptor = _commutant_generator(m, ctx)

    lattices = _reversor_lattices(m, ctx)
    report.reversor_bound = _box_bound(lattices, reversor_bound)
    obstructed = (not pgl_rec) if ctx.projective else rec == RECIPROCAL_NONE
    if obstructed:
        report.status = STATUS_IRREVERSIBLE
        reasons = ["characteristic polynomial is not self-reciprocal"
                   + ("" if ctx.projective else
                      " (neither directly nor up to sign)")]
        if not any(lattices):
            reasons.append("intertwiner lattice is trivial over Z")
        report.irreversibility_reason = "; ".join(reasons)
        return report

    # f and +-f^-1 share a characteristic polynomial, hence an eigenvalue,
    # so the reversor lattice is nonzero and the search below decides or
    # bounds the answer
    report.reversors = search_reversors(m, ctx, reversor_bound)
    if report.reversors:
        report.status = STATUS_CLASSIFIED
        if m.n == 2 and order is None and ctx.projective:
            report.classification_case = CASE_DINF
        elif report.symmetry_descriptor is not None and not ctx.projective:
            report.classification_case = _classify_from(
                report.symmetry_descriptor, report.reversors[0], ctx)
        else:
            report.classification_case = CASE_UNCLASSIFIED
    elif m.n == 2:
        report.status = STATUS_IRREVERSIBLE
        report.irreversibility_reason = ("the determinant form on the "
                                         "reversor lattice takes neither "
                                         "value +-1")
    return report
