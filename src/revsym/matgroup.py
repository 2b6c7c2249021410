"""Reversibility analysis for elements of GL(n,Z) and PGL(n,Z).

An element r of the ambient group reverses f when r f r^-1 = f^-1; elements
commuting with f are its symmetries.  This module decides and classifies
these relations with exact integer arithmetic:

* symmetry / reversor predicates (projective variants compare up to sign);
* the integer lattice of intertwiners {X : X A = B X}, computed through an
  exact integer kernel, which turns reversor search into a low-rank
  coefficient enumeration instead of a search over raw matrix entries;
* that enumeration keeps the combinations X = sum c_i B_i in a box
  |c_i| <= b with det X = +-1.  Since det X is an integer polynomial of
  degree <= n in each c_i, a Bareiss determinant is taken only on a corner
  grid of min(n+1, 2b+1)^rank points, and every other value in the box
  follows from backward-difference tables by integer additions, so it is
  exact; a matrix is built only where the value is +-1;
* an exact decision of whether an integral binary quadratic form takes the
  value +-1 (reduction cycle, Gauss reduction or linear factors, by the
  kind of form).  For 2x2 matrices det is such a form on each reversor
  lattice, which decides reversibility and yields a witness reversor; the
  norm form of the commutant Z[M0] (M = c*I + k*M0, k maximal) yields its
  fundamental generator.  Neither needs a search bound;
* a decision table classifying the reversing symmetry group of a 2x2
  integer matrix of infinite order into the three possible structures
  (all reversors involutions, all of order 4, or both orders present);
* an orchestrating `analyze` that produces a full ReversibilityReport.

A 2x2 input is always decided at a reversor bound up to 706; a larger
bound is refused, since its (2b+1)^2 box exceeds the enumeration cap of
2,000,000 points.  For n >= 3, negative search results are reported as
bound-relative unless an exact obstruction (non-reciprocal characteristic
polynomial, or an intertwiner lattice that is empty over Z) proves
irreversibility outright.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd, isqrt
from operator import add, sub

from .exactmath import (
    IntMatrix,
    IntPoly,
    NotUnimodular,
    RECIPROCAL_NONE,
    _hnf_rows,
    _reduce_column,
    char_poly,
    finite_order_test,
    mat_det,
    mat_inverse_unimodular,
    mat_mul,
    mat_pow,
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


class EmptyLattice(Exception):
    """The intertwiner lattice is trivial over Z: no reversor exists at all,
    not merely none within the search bound."""


class FiniteOrderInput(ValueError):
    """Operation requires a matrix of infinite order."""


class NotInSpan(Exception):
    """Element is not +-g^k for any integer k."""


class InfiniteOrderReversor(ValueError):
    """Order-based reduction requires a finite-order reversor."""


class NotAReversor(ValueError):
    """The supplied element does not reverse f."""


@dataclass(frozen=True)
class GroupContext:
    """Ambient matrix group: GL(n,Z), or PGL(n,Z) when projective."""

    n: int
    projective: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("context dimension must be >= 2")


def canonical_sign(a: IntMatrix) -> IntMatrix:
    """Representative with the first nonzero entry (row-major) positive."""
    for row in a.rows:
        for v in row:
            if v > 0:
                return a
            if v < 0:
                return -a
    return a


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
    return [IntMatrix([vec[i * n:(i + 1) * n] for i in range(n)])
            for vec in kernel]


def _combination(basis, coeffs, n):
    rows = [[0] * n for _ in range(n)]
    for c, mat in zip(coeffs, basis):
        if c:
            for i in range(n):
                row = mat.rows[i]
                out = rows[i]
                for j in range(n):
                    out[j] += c * row[j]
    return IntMatrix(rows)


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


def _enumerate_unimodular(lattices, bound):
    """Yield (lattice_index, coeffs, X) for all bounded integer combinations
    X = sum c_i B_i with det X = +-1, in sorted coefficient order.

    det(sum c_i B_i) is an integer polynomial of degree <= n in each c_i
    (every row of X is linear in c_i).  It is therefore computed with a
    Bareiss determinant only on the corner grid [-b, -b+h)^rank, with
    h = min(n+1, 2b+1); its value on the rest of the box follows exactly from
    those samples by integer finite differences (`_extend_box`).  A matrix is
    built, and its determinant re-checked, only where the value is +-1.
    """
    for idx, basis in enumerate(lattices):
        if not basis:
            continue
        rank = len(basis)
        side = 2 * bound + 1
        if side ** rank > _MAX_ENUMERATION:
            raise ValueError(
                f"search space (2*{bound}+1)^{rank} exceeds the enumeration "
                f"cap of {_MAX_ENUMERATION}; lower the coefficient bound")
        if side < 1:  # negative bound: the box is empty
            continue
        n = basis[0].n
        h = min(n + 1, side)
        corner = [mat_det(_combination(basis, coeffs, n)) for coeffs in
                  itertools.product(range(-bound, h - bound), repeat=rank)]
        prefixes = itertools.product(range(-bound, bound + 1),
                                     repeat=rank - 1)
        for prefix, row in zip(prefixes, _extend_box(corner, rank, h, side)):
            if 1 not in row and -1 not in row:
                continue
            for j, v in enumerate(row):
                if v not in (1, -1):
                    continue
                coeffs = prefix + (j - bound,)
                x = _combination(basis, coeffs, n)
                if mat_det(x) in (1, -1):
                    yield idx, coeffs, x


def _intertwiner_lattices(a: IntMatrix, b: IntMatrix, ctx: GroupContext):
    """Bases of {X : X a = b X}, and of {X : X a = -b X} when projective."""
    lattices = [intertwiner_lattice(a, b)]
    if ctx.projective:
        lattices.append(intertwiner_lattice(a, -b))
    return lattices


def search_reversors(f: IntMatrix, ctx: GroupContext, coeff_bound: int):
    """All unimodular bounded combinations over the reversor lattice(s).

    Solves X f = f^-1 X (and X f = -f^-1 X in the projective case) over Z,
    then enumerates integer combinations with coefficients bounded by
    `coeff_bound`, keeping those with determinant +-1.  Each reversor is
    returned with its order (None = infinite); the output is deduplicated up
    to sign in the projective case and sorted by coefficient vector.

    Raises EmptyLattice when the solution module itself is trivial, which
    proves that no reversor exists over Z at any bound.
    """
    _check_element(f, ctx)
    lattices = _intertwiner_lattices(f, mat_inverse_unimodular(f), ctx)
    if not any(lattices):
        raise EmptyLattice("no nonzero integer solution of X f = +-f^-1 X")
    found = []
    seen = set()
    for idx, coeffs, x in _enumerate_unimodular(lattices, coeff_bound):
        rep = canonical_sign(x) if ctx.projective else x
        if rep in seen:
            continue
        seen.add(rep)
        found.append((rep, finite_order_test(rep, ctx.projective)))
    return found


def are_conjugate_bounded(a: IntMatrix, b: IntMatrix, ctx: GroupContext,
                          coeff_bound: int):
    """Search for a unimodular X with X A X^-1 = B (up to sign when
    projective); returns the witness or None.  A None result is
    bound-relative unless the lattice itself was empty."""
    _check_element(a, ctx)
    _check_element(b, ctx)
    lattices = _intertwiner_lattices(a, b, ctx)
    for _, _, x in _enumerate_unimodular(lattices, coeff_bound):
        return x
    return None


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


def _form_reversor(f: IntMatrix, ctx: GroupContext):
    """(reversor, order) for a non-scalar 2x2 matrix f, or None when f has
    no reversor.

    Each reversor lattice has rank 0 or 2: +-f^-1 shares either no
    eigenvalue with f or both.  On a basis B1, B2, det(c1*B1 + c2*B2) is the
    integral binary quadratic form (det B1, det(B1 + B2) - det B1 - det B2,
    det B2) in (c1, c2), and the reversors in the lattice are exactly its
    solutions of det = +-1.
    """
    for basis in _intertwiner_lattices(f, mat_inverse_unimodular(f), ctx):
        if not basis:
            continue
        b1, b2 = basis
        a, c = mat_det(b1), mat_det(b2)
        sol = _represent_unit(a, mat_det(b1 + b2) - a - c, c)
        if sol is not None:
            x = b1.scaled(sol[0]) + b2.scaled(sol[1])
            rep = canonical_sign(x) if ctx.projective else x
            return rep, finite_order_test(rep, ctx.projective)
    return None


# ---------------------------------------------------------------------------
# Commutant generators for 2x2 matrices


@dataclass(frozen=True)
class SymmetryDescriptor:
    """Symmetry group of a 2x2 matrix in coordinates: a finite part of order
    `finite_part_order`, an infinite-order generator g, and the expression of
    the analyzed matrix as f_sign * g^f_exponent."""

    finite_part_order: int
    generator: IntMatrix
    f_sign: int
    f_exponent: int


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
    ident = IntMatrix.identity(g.n)
    ginv = mat_inverse_unimodular(g)
    pos = neg = ident
    for k in range(cap + 1):
        for mat, kk in ((pos, k), (neg, -k)) if k else ((pos, 0),):
            if mat == s:
                return (1, kk)
            if mat == -s:
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
        raise FiniteOrderInput("matrix must have infinite order")
    t = m.trace()
    if _is_square(t * t - 4 * mat_det(m)):
        raise ValueError("characteristic polynomial is reducible; the "
                         "commutant is not of the form a*I + b*m")
    (m00, m01), (m10, m11) = m.rows
    k = gcd(m01, m10, m11 - m00)
    m0 = IntMatrix([[0, m01 // k], [m10 // k, (m11 - m00) // k]])
    t0, d0 = m0.trace(), mat_det(m0)
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
    g = IntMatrix.identity(2).scaled(x) + m0.scaled(y)
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

    Raises NotInSpan when s is not +-g^k for any integer k, and ValueError
    when g is not hyperbolic with an irreducible characteristic polynomial,
    where the search would not be complete.
    """
    g = desc.generator
    disc = g.trace() ** 2 - 4 * mat_det(g)
    if g.n != 2 or disc <= 0 or _is_square(disc):
        raise ValueError("the generator must be a hyperbolic 2x2 matrix "
                         "with an irreducible characteristic polynomial")
    res = _dlog(s, g)
    if res is None:
        raise NotInSpan("element is not +-g^k for any k")
    return res


def induced_automorphism(r: IntMatrix, s: IntMatrix,
                         ctx: GroupContext) -> IntMatrix:
    """Conjugation action sigma(s) = r s r^-1."""
    _check_element(r, ctx)
    _check_element(s, ctx)
    return mat_mul(mat_mul(r, s), mat_inverse_unimodular(r))


def power_of_two_reversor(r: IntMatrix, f: IntMatrix,
                          ctx: GroupContext) -> IntMatrix:
    """Reduce a finite-order reversor to one of 2-power order.

    If r has order 2^l * (2m+1), then r^(2m+1) is again a reversor (odd
    powers of a reversor reverse) and has order exactly 2^l.
    """
    if not is_reversor(r, f, ctx):
        raise NotAReversor("element does not reverse f")
    order = finite_order_test(r, ctx.projective)
    if order is None:
        raise InfiniteOrderReversor("reversor has infinite order")
    odd = order
    while odd % 2 == 0:
        odd //= 2
    reduced = mat_pow(r, odd)
    return canonical_sign(reduced) if ctx.projective else reduced


# ---------------------------------------------------------------------------
# Classification and reports


def pgl_reciprocity_ok(p: IntPoly) -> bool:
    """Necessary spectral condition for reversibility up to sign: the
    characteristic polynomial of the inverse must match that of +-M."""
    rev = p.reversed_coeffs()
    c0 = p.coeffs[0]
    if c0 not in (1, -1):
        raise ValueError("expected the characteristic polynomial of a "
                         "unimodular matrix")
    direct = p if c0 == 1 else -p
    variant = p.sign_alternated()
    variant = variant if c0 == 1 else -variant
    return rev == direct or rev == variant


def _sign_of(m: IntMatrix):
    ident = IntMatrix.identity(m.n)
    if m == ident:
        return 1
    if m == -ident:
        return -1
    return None


def _classify_from(desc: SymmetryDescriptor, first_reversor: IntMatrix,
                   ctx: GroupContext) -> str:
    g = desc.generator
    r = first_reversor
    for _ in range(2):
        r_sq_sign = _sign_of(mat_mul(r, r))
        if r_sq_sign is None:
            raise AssertionError(
                "the square of a reversor is not +-I; the commutant "
                "generator is not fundamental")
        sigma_gg = _sign_of(mat_mul(induced_automorphism(r, g, ctx), g))
        if sigma_gg is None:
            raise AssertionError(
                "sigma(g)*g is not +-I; the commutant generator is not "
                "fundamental")
        involutory = r_sq_sign == 1
        if involutory and sigma_gg == 1:
            return CASE_ONE
        if not involutory and sigma_gg == 1:
            return CASE_TWO
        if involutory and sigma_gg == -1:
            return CASE_THREE
        # order-4 reversor with twisted action: r*g is an involution, retry
        r = mat_mul(r, g)
    raise AssertionError("normalization r -> r*g must terminate in one step")


@dataclass
class ReversibilityReport:
    matrix: IntMatrix
    context: GroupContext
    order: int | None
    characteristic_polynomial: IntPoly
    reciprocity: str
    sign_adjusted_reciprocity: bool
    status: str
    reversor_bound: int
    classification_case: str | None = None
    symmetry_descriptor: SymmetryDescriptor | None = None
    reversors: list = field(default_factory=list)
    irreversibility_reason: str | None = None


def analyze(m: IntMatrix, ctx: GroupContext,
            reversor_bound: int = 10) -> ReversibilityReport:
    """Full reversibility pipeline for one matrix.

    Computes order, characteristic polynomial and reciprocity data, searches
    for reversors over the intertwiner lattice with coefficients bounded by
    `reversor_bound`, and classifies the reversing symmetry group where the
    2x2 theory applies.  At n = 2, when the box holds no reversor, the
    determinant form on the reversor lattice gives a witness or proves that
    there is none.  Inputs of order 1 or 2 are short-circuited: conjugating
    such f to its inverse is no condition at all, so the reversing symmetry
    group equals the symmetry group.
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

    lattice_empty = False
    try:
        report.reversors = search_reversors(m, ctx, reversor_bound)
    except EmptyLattice:
        lattice_empty = True

    # at n = 2 the determinant form on the reversor lattice decides exactly
    if m.n == 2 and not report.reversors and not lattice_empty:
        witness = _form_reversor(m, ctx)
        if witness is not None:
            report.reversors = [witness]

    if (m.n == 2 and order is None
            and not _is_square(m.trace() ** 2 - 4 * mat_det(m))):
        report.symmetry_descriptor = symmetry_generator_2x2(m, ctx)

    if report.reversors:
        report.status = STATUS_CLASSIFIED
        if m.n == 2 and order is None and ctx.projective:
            report.classification_case = CASE_DINF
        elif report.symmetry_descriptor is not None and not ctx.projective:
            report.classification_case = _classify_from(
                report.symmetry_descriptor, report.reversors[0][0], ctx)
        else:
            report.classification_case = CASE_UNCLASSIFIED
        return report

    obstructed = (rec == RECIPROCAL_NONE) if not ctx.projective \
        else (not pgl_rec)
    if lattice_empty or obstructed or m.n == 2:
        report.status = STATUS_IRREVERSIBLE
        reasons = []
        if obstructed:
            reasons.append("characteristic polynomial is not self-reciprocal"
                           + ("" if ctx.projective else
                              " (neither directly nor up to sign)"))
        if lattice_empty:
            reasons.append("intertwiner lattice is trivial over Z")
        if not reasons:
            reasons.append("the determinant form on the reversor lattice "
                           "takes neither value +-1")
        report.irreversibility_reason = "; ".join(reasons)
    return report
