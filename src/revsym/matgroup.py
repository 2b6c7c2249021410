"""Reversibility analysis for elements of GL(n,Z) and PGL(n,Z).

An element r of the ambient group reverses f when r f r^-1 = f^-1; elements
commuting with f are its symmetries.  This module decides and classifies
these relations with exact integer arithmetic:

* symmetry / reversor predicates (projective variants compare up to sign);
* the integer lattice of intertwiners {X : X A = B X} of any pair, by an
  exact integer kernel, or empty at once when the characteristic
  polynomials of A and B differ, as no unimodular X then exists; it turns
  reversor and conjugator search into a low-rank coefficient enumeration;
* that enumeration keeps the X = sum c_i B_i with det X = +-1 in a box
  |c_i| <= b, with b cut until (2b+1)^rank fits 2,000,000 points, and at
  n >= 3 in the first box b = 1, 2, ... that holds one (box 0 holds only
  X = 0).  On a rank-2 lattice of 2x2 matrices det X is a binary
  quadratic form in (c1, c2), and each row c1 <= 0 is solved for c2
  exactly, so the box costs O(b).  Elsewhere det X is an integer
  polynomial of degree <= n in each c_i, and box b is walked as its new
  shell, max |c_i| = b, as the boxes before it hold none: one Bareiss
  determinant per row along the last coefficient, taken at 2^K for it,
  gives the row's polynomial as its base-2^K digits, evaluated on the
  whole row where the row lies on the shell and at its two ends
  elsewhere.  The rows are walked depth first on partial sums; a matrix
  is built only where the value is +-1;
* reversors come in pairs +-X, as -I is a symmetry of every f, and X and
  -X are one element of PGL.  The search covers the half of the box (at
  n = 2) or shell whose prefixes are up to 0, as det(-X) = (-1)^n det X,
  and lists each other hit as -X tagged with its X, with no determinant
  of its own: the projective search skips it, and the GL search takes its
  order from the order k of X (infinite, or k when 4 | k, or 2 when k = 2
  and -X != I);
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
  characteristic polynomial that is not that of f^-1 (nor of -f^-1, in
  PGL) proves irreversibility outright, before any lattice is built, and
  a single unipotent Jordan block with no reversor in the box is decided
  by one gcd: when it is 1, the extended gcd builds a reversor.
"""

from __future__ import annotations

import itertools
from math import comb, gcd, isqrt
from operator import add, mul

from .exactmath import (
    IntMatrix,
    IntPoly,
    NotUnimodular,
    _Immutable,
    _Record,
    _bareiss,
    _hnf_rows,
    _inverse_poly,
    _order,
    _product,
    _reduce_column,
    _resultant,
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


class GroupContext(_Immutable, _Record):
    """Ambient matrix group: GL(n,Z), or PGL(n,Z) when projective."""

    __slots__ = ("n", "projective")

    def __init__(self, n: int, projective: bool = False):
        if n < 2:
            raise ValueError("context dimension must be >= 2")
        self._fill(n, projective)


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


def _combiner(basis, n):
    """The map coeffs -> sum c_i B_i on a fixed basis: entry by entry for
    two 2x2 matrices, else each entry one dot product of the coefficients
    with that entry's column of basis values, formed once here."""
    if n == 2 and len(basis) == 2:
        ((a, b), (c, d)), ((e, f), (g, h)) = basis[0].rows, basis[1].rows

        def combine(coeffs):
            c1, c2 = coeffs
            return IntMatrix._trusted(((c1 * a + c2 * e, c1 * b + c2 * f),
                                       (c1 * c + c2 * g, c1 * d + c2 * h)))
        return combine
    columns = list(zip(*([v for row in mat.rows for v in row]
                         for mat in basis)))
    cuts = range(0, n * n, n)

    def combine(coeffs):
        flat = [sum(map(mul, coeffs, column)) for column in columns]
        return IntMatrix._trusted(tuple([tuple(flat[i:i + n]) for i in cuts]))
    return combine


def _digit_width(basis, bound):
    """A digit width K for which `_shell_rows` reads det(P + t*B_rank),
    for every partial sum P = sum_{l<rank} c_l B_l with |c_l| <= b, off
    det(P + 2^K*B_rank).

    Entry (i, j) of P + t*B_rank is a polynomial in t whose coefficients
    have absolute sum at most M_ij = b * sum_{l<rank} |B_l|_ij + |B_rank|_ij,
    and that sum is submultiplicative.  A minor's permutation terms are
    among the terms of the product of its rows' sums, so every minor of
    P + t*B_rank has coefficients of absolute value at most
    S = prod_rows max(1, sum_j M_ij), where sum_j M_ij is b times the
    absolute sums of row i of the B_l, plus that of B_rank.  With
    2^(K-1) > S:
    * a nonzero minor stays nonzero at t = 2^K, as its leading term
      outweighs the rest, so Bareiss at t = 2^K picks the same pivot rows as
      over Z[t];
    * each Bareiss entry is a minor (Sylvester's identity), so the exact
      divisions in Z[t] stay exact at t = 2^K;
    * the determinant's n+1 coefficients are its balanced base-2^K digits.
    """
    *heads, last = ([sum(map(abs, row)) for row in m.rows] for m in basis)
    coeff_bound = 1
    for own, *rest in zip(last, *heads):
        coeff_bound *= max(1, bound * sum(rest) + own)
    return coeff_bound.bit_length() + 1


def _digits(value, width, count):
    """The `count` balanced base-2^width digits of value, highest first,
    each in [-2^(width-1), 2^(width-1))."""
    shift = 1 << width
    digits = []
    for _ in range(count):
        digit = value & (shift - 1)
        if digit >= shift >> 1:
            digit -= shift
        digits.append(digit)
        value = (value - digit) >> width
    digits.reverse()
    return digits


def _shell_rows(basis, bound, whole=False):
    """det(sum c_i B_i) over the half of the shell max |c_i| = b of the box
    [-b, b]^rank (of the whole box if `whole`) that the prefixes up to 0
    cover: a list of (points, row) for each prefix p <= 0 of the first
    rank-1 coefficients, in itertools.product order, the last for p = 0:
    row[k] is the value at c = p + (points[k],), where the points are all
    of [-b, b] when p lies on the shell (some |p_i| = b) and -b, b
    otherwise.

    A depth-first walk over the prefixes adds each node's precomputed c*B_i
    entries to its parent's partial sum P, a flat list that starts at
    2^K*B_rank.  At each leaf, one Bareiss determinant gives
    det(P + t*B_rank) at t = 2^K; the balanced base-2^K digits of that
    value are the coefficients of this polynomial of degree <= n in t
    (`_digit_width` proves them exact), and the row is its value at the
    points.  p -> -p maps the shell onto itself and reverses the order of
    the prefixes, and det(-X) = (-1)^n det X: the row of a prefix -p > 0 is
    the row of p reversed, times (-1)^n, and is not computed.
    """
    n = basis[0].n
    *heads, last = ([v for row in mat.rows for v in row] for mat in basis)
    width = _digit_width(basis, bound)
    side = range(-bound, bound + 1)
    steps = [[[c * v for v in mat] for c in side] for mat in heads]
    cuts = range(0, n * n, n)
    rows = []

    def walk(partial, depth, edge, half):
        if depth == len(steps):
            value = _bareiss([partial[i:i + n] for i in cuts])
            coeffs = _digits(value, width, n + 1)
            points = side if edge else (-bound, bound)
            row = []
            for c in points:  # Horner
                v = 0
                for a in coeffs:
                    v = v * c + a
                row.append(v)
            rows.append((points, row))
            return
        level = steps[depth][:bound + 1] if half else steps[depth]  # c <= 0
        for c, step in enumerate(level, -bound):
            walk(list(map(add, partial, step)), depth + 1,
                 edge or abs(c) == bound, half and c == 0)

    walk([v << width for v in last], 0, whole or not bound, True)
    # walk calls itself, a reference cycle: break it, so that the rows go
    # with this frame and not at the next full garbage collection
    del walk
    return rows


def _det_form(basis):
    """The coefficients of the binary quadratic form det(c1*B1 + c2*B2) in
    (c1, c2), for a rank-2 lattice of 2x2 matrices B1 = [[a, b], [c, d]]
    and B2 = [[e, f], [g, h]]: det B1, the mixed term a*h + d*e - b*g - c*f,
    and det B2."""
    ((a, b), (c, d)), ((e, f), (g, h)) = basis[0].rows, basis[1].rows
    return a * d - b * c, a * h + d * e - b * g - c * f, e * h - f * g


def _form_row(form, disc, c1, bound):
    """The c2 in [-b, b], increasing, with a*c1^2 + b*c1*c2 + c*c2^2 = +-1
    for form = (a, b, c) of discriminant disc = b^2 - 4ac: the roots of a
    quadratic in c2 by an exact square root of its discriminant,
    disc*c1^2 + 4c(+-1), of a linear one when c = 0, and the whole row when
    the row is constant."""
    a, b, c = form
    lin, const, square = b * c1, a * c1 * c1, disc * c1 * c1
    roots = set()
    for e in (1, -1):
        if c:
            row_disc = square + 4 * c * e
            if _is_square(row_disc):
                s = isqrt(row_disc)
                roots.update(num // (2 * c) for num in (s - lin, -s - lin)
                             if num % (2 * c) == 0)
        elif lin:
            if (e - const) % lin == 0:
                roots.add((e - const) // lin)
        elif const == e:
            return range(-bound, bound + 1)
    return sorted(y for y in roots if -bound <= y <= bound)


def _enumerate_unimodular(lattices, bound):
    """Yield (lattice_index, coeffs, X, mirror) for the integer combinations
    X = sum c_i B_i with det X = +-1, in sorted coefficient order: those
    with every |c_i| <= b at n = 2, and those on the shell max |c_i| = b at
    n >= 3.  mirror is None, or, for a point listed as the negation -Y of
    a listed Y, Y itself; X is then None, and a caller that needs -Y
    builds it.

    Only the half of the box (at n = 2) or shell (at n >= 3) whose prefixes
    c_1..c_(rank-1) are up to 0 is solved.  On a rank-2 lattice of 2x2
    matrices det X is the binary quadratic form of `_det_form`, and each
    row c1 <= 0 is solved for c2 exactly (`_form_row`), in O(b) work for the
    box.  Elsewhere det(sum c_i B_i) is an integer polynomial of degree
    <= n in each c_i (every row of X is linear in c_i), read from one packed
    Bareiss determinant per row along the last coefficient
    (`_shell_rows`).  A matrix is built, and its determinant re-checked,
    only where the value is +-1.  c -> -c maps the box and the shell onto
    themselves and reverses sorted order, and det(-X) = (-1)^n det X, so
    the other half's hits are the negations of the hits with a nonzero
    prefix, listed after them in reverse order with no check of their own.
    """
    for idx, basis in enumerate(lattices):
        if not basis or bound < 0:  # a negative bound gives an empty box
            continue
        n = basis[0].n
        if n == 2 and len(basis) == 2:
            form = _det_form(basis)
            disc = form[1] * form[1] - 4 * form[0] * form[2]
            hits = ((c1, c2) for c1 in range(-bound, 1)
                    for c2 in _form_row(form, disc, c1, bound))
        else:
            prefixes = itertools.product(range(-bound, bound + 1),
                                         repeat=len(basis) - 1)
            rows = zip(prefixes, _shell_rows(basis, bound, whole=n == 2))
            hits = (prefix + (t,) for prefix, (points, row) in rows
                    if 1 in row or -1 in row
                    for t, v in zip(points, row) if v in (1, -1))
        combine = _combiner(basis, n)
        mirrored = []
        for coeffs in hits:
            x = combine(coeffs)
            if mat_det(x) in (1, -1):
                yield idx, coeffs, x, None
                if any(coeffs[:-1]):
                    mirrored.append((coeffs, x))
        for coeffs, x in reversed(mirrored):
            yield idx, tuple([-c for c in coeffs]), None, x


def _lattices(a: IntMatrix, b: IntMatrix, ctx: GroupContext, pa, pb):
    """Bases of {X : X a = c X} for c = b, and c = -b when projective, from
    the characteristic polynomials pa of a and pb of b (that of -b is the
    sign alternation of pb).  A target whose polynomial is not pa is left
    empty, with no elimination, as a unimodular X would make it X a X^-1.
    At odd n this empties -b in PGL, whose constant term (-1)^n det differs.
    """
    targets = [(b, pb)]
    if ctx.projective:
        targets.append((-b, pb.sign_alternated()))
    return [intertwiner_lattice(a, c) if q == pa else [] for c, q in targets]


def _reversor_lattices(f: IntMatrix, ctx: GroupContext, cp: IntPoly):
    """`_lattices` for the pair (f, f^-1), cp the characteristic polynomial
    of f."""
    return _lattices(f, mat_inverse_unimodular(f), ctx, cp, _inverse_poly(cp))


def _box_bound(lattices, bound):
    """The largest b <= bound whose box on the largest lattice fits the cap;
    a negative bound, whose box is empty, as it is."""
    rank = max(map(len, lattices))
    while rank and bound > 0 and (2 * bound + 1) ** rank > _MAX_ENUMERATION:
        # down to the float root's bound, then one step per rounding error
        bound = min(bound - 1, int(_MAX_ENUMERATION ** (1 / rank)) // 2)
    return bound


def _unimodular_points(lattices, bound):
    """(X, mirror) for the unimodular X in the lattices, for a bound the
    caller cut by `_box_bound`, mirror as in `_enumerate_unimodular` (X is
    None for a mirror, which never comes first): at n >= 3 the hits in the
    first box b = 1, 2, ... that has any, which are those of
    `_enumerate_unimodular` on its shell, as no box before it has one (box
    0 holds only X = 0); at n = 2 those of the box, or if none, one
    c1*B1 + c2*B2 from the first rank-2 lattice whose determinant form
    (`_det_form`) takes +-1 at (c1, c2)."""
    n = next((basis[0].n for basis in lattices if basis), 2)
    for b in range(1, bound + 1) if n > 2 else (bound,):
        hit = None
        for hit in _enumerate_unimodular(lattices, b):
            yield hit[2:]
        if hit is not None:
            return
    for basis in lattices:
        if len(basis) == 2 and basis[0].n == 2:
            sol = _represent_unit(*_det_form(basis))
            if sol is not None:
                yield _combiner(basis, 2)(sol), None
                return


def search_reversors(f: IntMatrix, ctx: GroupContext, coeff_bound: int, *,
                     _built=None):
    """Unimodular elements of the reversor lattice(s), with their orders.

    Solves X f = f^-1 X (and X f = -f^-1 X in the projective case) over Z
    on the targets of `_lattices`, those whose characteristic polynomial is
    that of f, and keeps, in sorted coefficient order, the unimodular
    combinations with coefficients bounded by `coeff_bound`, cut to fit the
    enumeration cap: for 2x2 f the whole box (or one from the determinant
    form), for n >= 3 the first box that holds one.  An empty result is
    exact for 2x2 f or when no target is left, else relative to the cut
    bound.  Each reversor is returned with its order (None = infinite),
    deduplicated up to sign when projective.
    `analyze` hands in the lattices it has built as `_built`: they are built
    once, and its search runs where bench/tracing.py counts candidates.
    """
    _check_element(f, ctx)
    lattices = (_reversor_lattices(f, ctx, char_poly(f)) if _built is None
                else _built)
    # A point listed as the mirror -X of a listed X is X itself in PGL.  In
    # GL its order follows from the order k of X, as (-X)^m = (-1)^m X^m:
    # * X^(2m) = I for no m when k is infinite, so neither is (-X)^m = I;
    # * when 4 | k, (-X)^k = I, and (-X)^j = I for j | k gives X^j = I for
    #   even j, so j = k, and X^(2j) = I for odd j, so k | 2j, which 4 | k
    #   forbids;
    # * when k = 2, (-X)^2 = X^2 = I, and -X is I, of order 1, exactly when
    #   its trace is n, as an involution's eigenvalues are +-1.
    # Other k (1, 3, 6, 10, ...) leave the order of -X to `_order`.
    found = {}
    for x, mirror in _unimodular_points(
            lattices, _box_bound(lattices, coeff_bound)):
        if mirror is None:
            rep = canonical_sign(x) if ctx.projective else x
            if rep not in found:  # every point's determinant is already +-1
                found[rep] = _order(rep, ctx.projective)
        elif not ctx.projective:
            x, k = -mirror, found[mirror]
            found[x] = (k if k is None or k % 4 == 0
                        or k == 2 and x.trace() != f.n else _order(x, False))
    return list(found.items())


def find_conjugator(a: IntMatrix, b: IntMatrix, ctx: GroupContext,
                    coeff_bound: int):
    """A unimodular X with X A X^-1 = B (up to sign when projective), or
    None, searched on the lattices of `_lattices`, with the bound cut over
    those that can hold a conjugator.  None is exact when the polynomials
    differ (B's, and -B's when projective, from A's), and for non-scalar
    2x2 A and B at every bound: an invertible X in an intertwiner lattice
    makes it a copy of the commutant of A, of rank 2, where the determinant
    form decides.  Otherwise None is relative to the cut bound.  The first
    point of the search is taken, and it is never a mirror -X, which comes
    after its X."""
    _check_element(a, ctx)
    _check_element(b, ctx)
    lattices = _lattices(a, b, ctx, char_poly(a), char_poly(b))
    points = _unimodular_points(lattices, _box_bound(lattices, coeff_bound))
    return next((x for x, _ in points), None)


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
    complete.  The powers g^k and g^-k are walked as row tuples (`_product`
    with the columns of g and of g^-1) and compared with the rows of s and
    of -s.
    """
    cap = 2 * (abs(s.trace()) + 1).bit_length()
    plus, minus = s.rows, (-s).rows
    cols = tuple(zip(*g.rows))
    inv_cols = tuple(zip(*mat_inverse_unimodular(g).rows))
    pos = neg = ((1, 0), (0, 1))
    for k in range(cap + 1):
        for rows, kk in ((pos, k), (neg, -k)) if k else ((pos, 0),):
            if rows == plus:
                return (1, kk)
            if rows == minus:
                return (-1, kk)
        pos = _product(pos, cols)
        neg = _product(neg, inv_cols)
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


# ---------------------------------------------------------------------------
# Classification and reports


def pgl_reciprocity_ok(p: IntPoly) -> bool:
    """Necessary spectral condition for reversibility up to sign: p, the
    characteristic polynomial of M, must be that of M^-1 (`_inverse_poly`)
    or of -M^-1, its sign alternation."""
    if p.coeffs[0] not in (1, -1):
        raise ValueError("expected the characteristic polynomial of a "
                         "unimodular matrix")
    q = _inverse_poly(p)
    return p in (q, q.sign_alternated())


# the GL case, keyed by the set of reversor orders that occur
_CASES = {frozenset({2}): CASE_ONE, frozenset({4}): CASE_TWO,
          frozenset({2, 4}): CASE_THREE}


def _classify_from(desc: SymmetryDescriptor, reversor) -> str:
    """Case of the GL reversing symmetry group, read from the orders of the
    reversors r and r g, for a listed (r, order of r).  Every reversor is
    +-r g^k, and r g r^-1 = +-g^-1, so (r g^k)^2 is r^2 for every k, or
    (-1)^k r^2: between them, r and r g show every reversor order."""
    r, order = reversor
    rg = mat_mul(r, desc.generator)
    orders = frozenset((order, finite_order_test(rg)))
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


def _jordan_content(f: IntMatrix, cp: IntPoly, basis):
    """For f = eps*(I + N) a single unipotent Jordan block at n >= 3
    (cp = (x - eps)^n, so ker N has one basis vector per block), (g, X): g
    the gcd of the d with B v = d*v over the basis matrices B of the GL
    reversor lattice, v the one primitive vector of ker N, and X a lattice
    matrix with X v = +-g*v; None for any other f.

    X f = f^-1 X maps ker N, the eigenline of f, into the eigenline of f^-1
    for eps, which is ker N again: X v = d*v, with d an integer linear form
    in X.  On the kernel flag of N, X acts by the scalars d, -d, d, ..., so
    det X = (-1)^(n(n-1)/2) * d^n.  So a reversor exists iff g = 1, and
    then X is one.  The PGL lattice of X f = -f^-1 X is zero, as -f^-1 has
    no eigenvalue eps.
    """
    n = f.n
    eps = -cp.coeffs[n - 1] // n
    if n < 3 or cp.coeffs != tuple([comb(n, k) * (-eps) ** (n - k)
                                    for k in range(n + 1)]):
        return None
    nil = IntMatrix._trusted(tuple(
        tuple(eps * v - (i == j) for j, v in enumerate(row))
        for i, row in enumerate(f.rows)))
    v, *rest = _integer_kernel(nil.rows, n)
    if rest:
        return None
    k = next(i for i, x in enumerate(v) if x)
    # rows [d_i | e_i] reduced on their first column, an extended gcd: the
    # pivot row is [+-g | c] with sum c_i d_i = +-g
    work = [[sum(map(mul, b.rows[k], v)) // v[k]]
            + [int(i == j) for j in range(len(basis))]
            for i, b in enumerate(basis)]
    _reduce_column(work, 0, 0)
    content, *coeffs = work[0]
    return abs(content), _combiner(basis, n)(coeffs)


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
    characteristic polynomial is neither that of f^-1 nor, in PGL, that of
    -f^-1 is proven irreversible before any lattice is built, and its
    report keeps the bound it was given.  A single unipotent Jordan block
    whose box holds no reversor is decided by the gcd of `_jordan_content`:
    proven irreversible when it is not 1, and classified with the one
    reversor it builds when it is.  Any other n >= 3 input whose box holds
    none is proven irreversible when every reversor lattice has a smaller
    rank than the commutant lattice {X : X f = f X}, as f is then not
    similar to f^-1 (nor, in PGL, to -f^-1) over Q.
    """
    _check_element(m, ctx)
    cp = char_poly(m)
    inv = _inverse_poly(cp)
    pair = (inv, inv.sign_alternated())  # those of f^-1 and -f^-1
    order = finite_order_test(m, ctx.projective)
    report = ReversibilityReport(
        matrix=m, context=ctx, order=order, characteristic_polynomial=cp,
        reciprocity=reciprocity_class(cp),
        sign_adjusted_reciprocity=cp in pair,
        status=STATUS_INCONCLUSIVE, reversor_bound=reversor_bound)
    if order in (1, 2):
        report.status = STATUS_TRIVIAL
        return report

    if (m.n == 2 and order is None
            and not _is_square(m.trace() ** 2 - 4 * mat_det(m))):
        report.symmetry_descriptor = symmetry_generator_2x2(m, ctx)

    targets = pair if ctx.projective else pair[:1]
    if cp not in targets:  # not even similar to f^-1 (or -f^-1 in PGL)
        report.status = STATUS_IRREVERSIBLE
        reasons = ["characteristic polynomial is not self-reciprocal"
                   + ("" if ctx.projective else
                      " (neither directly nor up to sign)")]
        # Sylvester: X f = c X has an X != 0 iff f and c share a root
        if all(_resultant(cp.coeffs, q.coeffs) for q in targets):
            reasons.append("intertwiner lattice is trivial over Z")
        report.irreversibility_reason = "; ".join(reasons)
        return report

    # f shares its polynomial, hence an eigenvalue, with f^-1 or -f^-1, so
    # that reversor lattice is nonzero and the search below decides or
    # bounds the answer
    lattices = _reversor_lattices(m, ctx, cp)
    bound = report.reversor_bound = _box_bound(lattices, reversor_bound)
    report.reversors = search_reversors(m, ctx, bound, _built=lattices)
    jordan = (None if report.reversors
              else _jordan_content(m, cp, lattices[0]))
    if jordan and jordan[0] == 1 and mat_det(jordan[1]) in (1, -1):
        x = canonical_sign(jordan[1]) if ctx.projective else jordan[1]
        report.reversors = [(x, _order(x, ctx.projective))]
    if report.reversors:
        report.status = STATUS_CLASSIFIED
        if m.n == 2 and order is None and ctx.projective:
            report.classification_case = CASE_DINF
        elif report.symmetry_descriptor is not None and not ctx.projective:
            report.classification_case = _classify_from(
                report.symmetry_descriptor, report.reversors[0])
        else:
            report.classification_case = CASE_UNCLASSIFIED
    elif m.n == 2:
        report.status = STATUS_IRREVERSIBLE
        report.irreversibility_reason = ("the determinant form on the "
                                         "reversor lattice takes neither "
                                         "value +-1")
    elif jordan and jordan[0] != 1:
        sign = "-" if m.n % 4 in (2, 3) else ""
        report.status = STATUS_IRREVERSIBLE
        report.irreversibility_reason = (
            "f is a single Jordan block; every X in the reversor "
            "lattice maps its eigenvector v to d*v with d divisible by "
            f"{jordan[0]}, so det X = {sign}d^{m.n} is never +-1")
    elif (rank := len(intertwiner_lattice(m, m))) > max(map(len, lattices)):
        # Byrnes & Gauger (1977): A ~ B over Q iff dim C(A, B) = dim C(A)
        ranks = ", ".join(str(len(basis)) for basis in lattices)
        report.status = STATUS_IRREVERSIBLE
        report.irreversibility_reason = (
            f"reversor lattice rank{'s' * ctx.projective} {ranks} < "
            f"commutant rank {rank}: f is not similar over Q to "
            + ("+-f^-1" if ctx.projective else "f^-1"))
    return report
