"""The shell enumeration of the coefficient box against the per-candidate
one.

At n >= 3 `_enumerate_unimodular` lists the shell max |c_i| = b, reading
each row of it, along the last coefficient, from one packed determinant.
Only the half of the shell whose prefixes are up to 0 is walked; the other
half's hits are the negations -X of the walked hits with a nonzero prefix,
tagged with the X they mirror.  At n = 2 the box is halved the same way:
the rows c1 <= 0 of a rank-2 lattice are solved, and the rows c1 > 0 are
their mirrors.  The reference below is the direct method:
build every combination of the box and take one Bareiss determinant each,
with no mirror tags.  Shell b, both halves, must yield the reference's box
b less its box b - 1, and the whole box at n = 2.  At n >= 3 the search
lists the first box that holds a reversor, from box 1 on, and takes the
order of each mirror -X from that of X; both rules are checked against the
reference too.
"""

import itertools
import random
from collections import Counter

import pytest

from revsym import matgroup
from revsym.exactmath import (
    RECIPROCAL_NONE,
    IntMatrix,
    char_poly,
    finite_order_test,
    mat_det,
    mat_inverse_unimodular,
    mat_mul,
    reciprocity_class,
)
from revsym.matgroup import (
    CASE_UNCLASSIFIED,
    STATUS_CLASSIFIED,
    STATUS_INCONCLUSIVE,
    STATUS_IRREVERSIBLE,
    GroupContext,
    _box_bound,
    _combiner,
    _det_form,
    _enumerate_unimodular,
    _is_square,
    _jordan_content,
    _shell_rows,
    analyze,
    canonical_sign,
    find_conjugator,
    intertwiner_lattice,
    is_reversor,
    pgl_reciprocity_ok,
    search_reversors,
)


def reference_enumeration(lattices, bound):
    for idx, basis in enumerate(lattices):
        if not basis:
            continue
        rank = len(basis)
        if (2 * bound + 1) ** rank > matgroup._MAX_ENUMERATION:
            raise ValueError("search space too large")
        n = basis[0].n
        for coeffs in itertools.product(range(-bound, bound + 1), repeat=rank):
            if not any(coeffs):
                continue
            x = _combiner(basis, n)(coeffs)
            if mat_det(x) in (1, -1):
                yield idx, coeffs, x, None


def untagged(hits):
    """(idx, coeffs, X) of each hit of `_enumerate_unimodular`, once its
    mirror tags are checked: a hit is a mirror exactly when its prefix of
    coefficients is past 0, on every lattice (the rows c1 > 0 of a rank-2
    lattice of 2x2 matrices included), and then it comes with no matrix,
    its tag is the X listed before it at -coeffs, and its X is the negation
    of that one."""
    listed = {}
    out = []
    for idx, coeffs, x, mirror in hits:
        zero = (0,) * (len(coeffs) - 1)
        assert (mirror is not None) == (coeffs[:-1] > zero)
        if mirror is not None:
            assert x is None
            assert listed[idx, tuple(-c for c in coeffs)] == mirror
            x = -mirror
        listed[idx, coeffs] = x
        out.append((idx, coeffs, x))
    return out


def hits_of(lattices, bound):
    return untagged(_enumerate_unimodular(lattices, bound))


def reference_hits(lattices, bound):
    return [hit[:3] for hit in reference_enumeration(lattices, bound)]


NAMED = {
    "case1": [[1, 2], [1, 3]],
    "case2": [[5, 7], [7, 10]],
    "case3": [[1, 1], [1, 2]],
    "fib": [[0, 1], [1, 1]],
    "shear": [[1, 1], [0, 1]],
    "order6": [[0, -1], [1, 1]],
    "companion3": [[0, 1, 0], [0, 0, 1], [1, -4, 4]],
    "jordan3": [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
    "m4": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 2, 2, 2]],
    "n4": [[1, 0, -3, 1], [-1, 3, 2, -1], [1, -3, 1, 0], [0, 1, -3, 1]],
}

# the 6x6 companion of x^6-3x^5+x^4-5x^3+x^2-3x+1 (reversor lattice of rank
# 6) and a 4x4 input whose GL and PGL reversor lattices have ranks 6 and 4
LARGE_GRIDS = {
    "companion6": [[0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                   [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1],
                   [-1, 3, -1, 5, -1, 3]],
    "rank6": [[1, 0, 0, 0], [0, 1, 0, 0], [-1, 0, -1, -1], [-1, 0, 0, -1]],
}


def conjugate(m, seed, steps=3):
    """P m P^-1 for P a seeded product of elementary row additions."""
    rng = random.Random(seed)
    n = m.n
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-1, 1))
        p[i] = [a + k * b for a, b in zip(p[i], p[j])]
    p = IntMatrix(p)
    return mat_mul(mat_mul(p, m), mat_inverse_unimodular(p))


def both_lattices(a, b):
    """The GL and PGL lattices {X : X a = +-b X}."""
    return [intertwiner_lattice(a, b), intertwiner_lattice(a, -b)]


def reversor_lattices(m):
    return both_lattices(m, mat_inverse_unimodular(m))


def _conjugate_lattices():
    """Reversor lattices of conjugates, and conjugacy lattices between each
    named input and its conjugate (never empty: they contain P)."""
    for key, rows in NAMED.items():
        m = IntMatrix(rows)
        for seed in (1, 2):
            c = conjugate(m, seed)
            for kind, lattices in (("rev", reversor_lattices(c)),
                                   ("conj", both_lattices(m, c))):
                if any(lattices):
                    yield pytest.param(lattices, id=f"{kind}-{key}^P{seed}")


CONJUGATE_LATTICES = list(_conjugate_lattices())


def _form_kind(form):
    """How `_form_row` solves a row of the determinant form (a, b, c)."""
    a, b, c = form
    if c == 0:
        return "constant" if b == 0 else "linear"
    disc = b * b - 4 * a * c
    return ("definite" if disc < 0 else "square" if _is_square(disc)
            else "indefinite")


# 2x2 inputs by the sign of the discriminant of the determinant form on
# their reversor lattices: the shear and -1 1; 0 -1 are degenerate (0), with
# rows entirely unimodular; the inputs of order 3, 4 and 6 are definite (-1)
FORM_INPUTS = {
    "shear": ([[1, 1], [0, 1]], 0),
    "neg-shear": ([[-1, 1], [0, -1]], 0),
    "order3": ([[0, -1], [1, -1]], -1),
    "order4": ([[0, -1], [1, 0]], -1),
    "order6": ([[0, -1], [1, 1]], -1),
}


def _form_lattices():
    for key, (rows, sign) in FORM_INPUTS.items():
        m = IntMatrix(rows)
        for seed in (0, 1, 2):
            c = m if seed == 0 else conjugate(m, seed)
            yield pytest.param(reversor_lattices(c), sign,
                               id=f"{key}^P{seed}")


def _basis(*mats):
    return [IntMatrix(rows) for rows in mats]


# hand-built rank-2 bases whose forms take each path of `_form_row`
FORM_BASES = {
    "linear": _basis([[1, 0], [0, 0]], [[0, 0], [0, 1]]),      # c1*c2
    "constant": _basis([[1, 0], [0, 1]], [[0, 1], [0, 0]]),    # c1^2
    "square": _basis([[0, 1], [0, 0]], [[1, 0], [0, 1]]),      # c2^2
    "definite": _basis([[1, 0], [0, 1]], [[0, -1], [1, 0]]),   # c1^2+c2^2
    "indefinite": _basis([[1, 0], [0, 1]], [[0, 1], [1, 1]]),  # fib norm
}


class TestEnumerationMatchesReference:
    # at n = 3 and 4 every rank prefix and bound 0..4, b = 0 and rank 1
    # included, give shell b: the hits of box b that box b - 1 lacks; at
    # n = 2 the determinant form (rank 2) or the whole-box walk (rank 1)
    # lists the box, checked up to bound 30
    @pytest.mark.parametrize("lattices", CONJUGATE_LATTICES)
    def test_every_rank_and_bound(self, lattices):
        top = max(len(basis) for basis in lattices)
        n = next(basis[0].n for basis in lattices if basis)
        bounds = [*range(5), 10, 30] if n == 2 else range(5)
        for rank in range(1, top + 1):
            prefix = [basis[:rank] for basis in lattices]
            for bound in bounds:
                want = reference_hits(prefix, bound)
                if n > 2:
                    inner = {hit[:2] for hit in
                             reference_enumeration(prefix, bound - 1)}
                    want = [hit for hit in want if hit[:2] not in inner]
                assert hits_of(prefix, bound) == want

    @pytest.mark.parametrize("lattices,sign", list(_form_lattices()))
    def test_degenerate_and_definite_forms(self, lattices, sign):
        forms = [_det_form(basis) for basis in lattices if len(basis) == 2]
        discs = [b * b - 4 * a * c for a, b, c in forms]
        assert discs and all((d > 0) - (d < 0) == sign for d in discs)
        for bound in [*range(5), 10, 30]:
            assert (hits_of(lattices, bound)
                    == reference_hits(lattices, bound))

    @pytest.mark.parametrize("kind", list(FORM_BASES))
    def test_each_row_solver(self, kind):
        basis = FORM_BASES[kind]
        assert _form_kind(_det_form(basis)) == kind
        for bound in [*range(5), 10, 30]:
            got = hits_of([basis], bound)
            assert got == reference_hits([basis], bound)
            assert got or bound == 0

    def test_constant_rows_are_listed_whole(self):
        # the shear's GL reversor lattice has form (-1, 0, 0): the rows
        # c1 = +-1 are all unimodular, 2 * (2b+1) points
        lattices = reversor_lattices(IntMatrix(FORM_INPUTS["shear"][0]))
        assert _det_form(lattices[0]) == (-1, 0, 0)
        hits = hits_of(lattices, 30)
        assert [c for _, c, _ in hits] == [(c1, c2) for c1 in (-1, 1)
                                           for c2 in range(-30, 31)]

    def test_negative_bound_yields_nothing(self):
        lattices = reversor_lattices(IntMatrix(NAMED["m4"]))
        assert list(_enumerate_unimodular(lattices, -1)) == []


def unscreened_lattices(a, b, ctx, pa, pb):
    """`matgroup._lattices` with no screen: every target eliminated."""
    return [intertwiner_lattice(a, c) for c in [b, -b][:1 + ctx.projective]]


class TestSearchMatchesReference:
    """The search and the conjugator give what the reference enumeration
    gives on the unscreened lattices, for conjugator targets of every kind:
    the input, its inverse, a conjugate, a target of the other determinant
    and one of the same determinant with another polynomial."""

    @pytest.mark.parametrize("key", list(NAMED))
    @pytest.mark.parametrize("projective", [False, True])
    def test_search_and_conjugacy(self, monkeypatch, key, projective):
        m = IntMatrix(NAMED[key])
        n = m.n
        ctx = GroupContext(n, projective)
        target = conjugate(m, 7)
        minv = mat_inverse_unimodular(m)
        flipped = mat_mul(IntMatrix([[(i == j) * (1 - 2 * (i == 0))
                                      for j in range(n)] for i in range(n)]),
                          m)
        sheared = mat_mul(IntMatrix([[int(i == j or (i, j) == (n - 1, 0))
                                      for j in range(n)] for i in range(n)]),
                          m)
        assert mat_det(flipped) == -mat_det(m)
        assert char_poly(sheared) != char_poly(m)
        calls = [(search_reversors, m, ctx, b) for b in range(7)]
        calls += [(find_conjugator, m, other, ctx, b)
                  for other in (m, minv, target, flipped, sheared)
                  for b in range(7)]
        new = [fn(*args) for fn, *args in calls]
        monkeypatch.setattr(matgroup, "_enumerate_unimodular",
                            reference_enumeration)
        monkeypatch.setattr(matgroup, "_lattices", unscreened_lattices)
        assert new == [fn(*args) for fn, *args in calls]


# 2x2 inputs for the half-box rule: hyperbolic (det 1 and det -1),
# parabolic, and of orders 3, 4 and 6
HALF_BOX_INPUTS = {
    "case1": [[1, 2], [1, 3]],
    "case2": [[5, 7], [7, 10]],
    "case3": [[1, 1], [1, 2]],
    "fib": [[0, 1], [1, 1]],
    "det-1": [[2, 1], [1, 0]],
    "shear": [[1, 1], [0, 1]],
    "neg-shear": [[-1, 1], [0, -1]],
    "order3": [[0, -1], [1, -1]],
    "order4": [[0, -1], [1, 0]],
    "order6": [[0, -1], [1, 1]],
}


def _half_box_inputs():
    for key, rows in HALF_BOX_INPUTS.items():
        m = IntMatrix(rows)
        yield pytest.param(m, id=key)
        for steps in (2, 5, 8):
            yield pytest.param(conjugate(m, steps, steps), id=f"{key}^P{steps}")


def full_box_points(lattices, bound):
    """Every (c1, c2) of [-b, b]^2 on each rank-2 lattice of 2x2 matrices,
    in sorted order, taken through `_combiner` and kept where `mat_det` is
    +-1."""
    for basis in lattices:
        if len(basis) == 2:
            combine = _combiner(basis, 2)
            for coeffs in itertools.product(range(-bound, bound + 1),
                                            repeat=2):
                x = combine(coeffs)
                if mat_det(x) in (1, -1):
                    yield x


class TestTwoByTwoHalfBox:
    """At n = 2 the rows c1 <= 0 are solved and the rows c1 > 0 listed as
    their mirrors; the search and the conjugator must still give what the
    full box gives."""

    @pytest.mark.parametrize("m", list(_half_box_inputs()))
    @pytest.mark.parametrize("projective", [False, True])
    def test_search_matches_the_full_box(self, m, projective):
        ctx = GroupContext(2, projective)
        lattices = reversor_lattices(m)[:1 + projective]
        for bound in range(9):
            want = {}
            for x in full_box_points(lattices, bound):
                rep = canonical_sign(x) if projective else x
                if rep not in want:
                    want[rep] = finite_order_test(rep, projective)
            got = search_reversors(m, ctx, bound)
            if want:
                assert got == list(want.items())
            else:
                # an empty box: at most the one point of the determinant
                # form, a reversor past the box
                assert len(got) <= 1
                for x, k in got:
                    assert is_reversor(x, m, ctx)
                    assert k == finite_order_test(x, projective)

    @pytest.mark.parametrize("m", list(_half_box_inputs()))
    @pytest.mark.parametrize("projective", [False, True])
    def test_conjugator_is_the_first_full_box_point(self, m, projective):
        ctx = GroupContext(2, projective)
        minv = mat_inverse_unimodular(m)
        for other in (m, minv, conjugate(m, 11, 4)):
            lattices = [intertwiner_lattice(m, other)]
            if projective:
                lattices.append(intertwiner_lattice(m, -other))
            for bound in range(9):
                first = next(full_box_points(lattices, bound), None)
                got = find_conjugator(m, other, ctx, bound)
                if first is not None:
                    assert got == first
                elif got is not None:  # the point of the determinant form
                    target = mat_mul(mat_mul(got, m),
                                     mat_inverse_unimodular(got))
                    assert (target == other
                            or projective and target == -other)


def shell_values(basis, b, whole=False):
    """The (c, value) pairs of `_shell_rows`, in its order, which cover the
    prefixes up to 0, then those of the other half by the mirror rule: the
    value at -c is (-1)^n times the value at c, listed in reverse order."""
    n = basis[0].n
    prefixes = itertools.product(range(-b, b + 1), repeat=len(basis) - 1)
    rows = _shell_rows(basis, b, whole)
    assert len(rows) == ((2 * b + 1) ** (len(basis) - 1) + 1) // 2
    walked = [(prefix + (t,), v)
              for prefix, (points, row) in zip(prefixes, rows)
              for t, v in zip(points, row)]
    assert not any(walked[-1][0][:-1])  # the last row is prefix 0's
    return walked + [(tuple(-x for x in c), (-1) ** n * v)
                     for c, v in reversed(walked) if any(c[:-1])]


def reference_values(basis, b, whole=False):
    """(c, det(sum c_i B_i)) over the shell max |c_i| = b, or over the whole
    box, one determinant per point, in sorted order."""
    n = basis[0].n
    box = itertools.product(range(-b, b + 1), repeat=len(basis))
    return [(c, mat_det(_combiner(basis, n)(c))) for c in box
            if whole or b in map(abs, c)]


def _corner_grids():
    """(basis, b) for the GL and PGL reversor lattices of every named
    n >= 3 input and of LARGE_GRIDS, b = 0..3 cut to fit the cap."""
    inputs = {k: v for k, v in NAMED.items() if len(v) >= 3}
    inputs.update(LARGE_GRIDS)
    for key, rows in inputs.items():
        lattices = reversor_lattices(IntMatrix(rows))
        for kind, basis in zip(("gl", "pgl"), lattices):
            for b in range(_box_bound(lattices, 3) + 1) if basis else ():
                yield pytest.param(basis, b, id=f"{key}-{kind}-b{b}")


CORNER_GRIDS = list(_corner_grids())

# (n, rank, b) for seeded bases, n = 3..6, rank 1..6, b = 0..3, wherever
# min(n+1, 2b+1)^rank <= 2,500: b = 0 and 1 at every n and rank, b = 2 and
# 3 at rank 1..4 and more
PACKED_GRIDS = [(n, rank, b) for n in range(3, 7) for rank in range(1, 7)
                for b in range(4) if min(n + 1, 2 * b + 1) ** rank <= 2500]

# hand-built bases for the packed determinant of `_shell_rows`: a leading
# entry that is the zero polynomial (Bareiss swaps rows at t = 2^K too), a
# row that is zero in every matrix, and rank 1; for a positive diagonal B
# at rank 1, det(t*B) = det(B)*t^n and det B is exactly the coefficient
# bound of `_digit_width`, a power of two here, so a width one bit short
# misreads the top digit; entries past 2^64 would show any fixed-width or
# float arithmetic
PACKED_EDGE_BASES = {
    "row-swap": _basis([[0, 1, 2], [1, 0, 1], [2, 1, 0]],
                       [[0, 2, -1], [1, 1, 0], [0, -1, 3]],
                       [[0, 0, 1], [-1, 0, 0], [1, 2, 0]]),
    "zero-row": _basis([[1, 2, 0, 1], [0, 1, 3, 0], [0, 0, 0, 0],
                        [2, 0, 1, 1]],
                       [[0, 1, 1, 0], [1, 0, 0, 2], [0, 0, 0, 0],
                        [0, 3, 1, 0]]),
    "rank1": _basis([[2, 1, 0, 1], [-1, 3, 1, 0], [0, 1, 1, 2],
                     [1, 0, -2, 1]]),
    "digit-bound-3": _basis([[2, 0, 0], [0, 2, 0], [0, 0, 2]]),
    "digit-bound-5": _basis([[2 ** i * (i == j) for j in range(5)]
                             for i in range(5)]),
    "digit-bound-rank2": _basis([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                 [0, 0, 0, 1]],
                                [[4, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0],
                                 [0, 0, 0, 1]]),
    "past-2^64": _basis([[2 ** 64 + 1, -3, 2 ** 70], [5, -(2 ** 66), 1],
                         [2 ** 65 - 7, 0, -1]],
                        [[1, 2 ** 67, -2], [-(2 ** 64), 3, 2 ** 64 + 9],
                         [0, 1, -(2 ** 68)]]),
}


class TestCornerGrid:
    """The rows of `_shell_rows`, one packed determinant each: every value
    must be the determinant of its point's matrix, and the points must be
    the shell's (or the box's), each once, in sorted order."""

    @pytest.mark.parametrize("basis,b", CORNER_GRIDS)
    def test_values_match_per_point_determinants(self, basis, b):
        assert shell_values(basis, b) == reference_values(basis, b)

    def test_cases_cover_both_grid_shapes_and_parities(self):
        # shells with rows taken at their two ends only (b >= 1) and shells
        # of whole rows only (b = 0), each at odd n, where the mirror flips
        # the sign, and at even n
        shapes = {(b > 0, basis[0].n % 2)
                  for basis, b in (p.values for p in CORNER_GRIDS)}
        assert shapes == {(True, 0), (True, 1), (False, 0), (False, 1)}

    @pytest.mark.parametrize("n,rank,b", PACKED_GRIDS)
    def test_packed_rows_match_on_seeded_bases(self, n, rank, b):
        """Each row comes from one packed determinant: every value must
        equal the determinant of its point's matrix, pivots that vanish
        included."""
        rng = random.Random(f"packed/{n}/{rank}/{b}")
        for _ in range(3):
            basis = [IntMatrix([[rng.choice((0, 0, 1, -1, 2, -3))
                                 for _ in range(n)] for _ in range(n)])
                     for _ in range(rank)]
            assert shell_values(basis, b) == reference_values(basis, b)

    def test_seeded_bases_cover_both_grid_shapes(self):
        shapes = set(PACKED_GRIDS)
        assert {(n, rank, b) for n in range(3, 7) for rank in range(1, 7)
                for b in (0, 1)} <= shapes
        assert {(n, rank, b) for n in range(3, 7) for rank in range(1, 5)
                for b in (2, 3)} <= shapes

    def test_digit_width_matches_the_entrywise_bound(self):
        """K from the basis matrices' absolute row sums equals K from the
        entrywise bounds M_ij, on the seeded and the hand-built bases."""
        def entrywise_width(basis, bound):
            *heads, last = basis
            n = last.n
            coeff_bound = 1
            for i in range(n):
                row = sum(bound * sum(abs(m.rows[i][j]) for m in heads)
                          + abs(last.rows[i][j]) for j in range(n))
                coeff_bound *= max(1, row)
            return coeff_bound.bit_length() + 1

        bases = list(PACKED_EDGE_BASES.values())
        for n, rank, b in PACKED_GRIDS:
            rng = random.Random(f"packed/{n}/{rank}/{b}")
            bases += [[IntMatrix([[rng.choice((0, 0, 1, -1, 2, -3))
                                   for _ in range(n)] for _ in range(n)])
                       for _ in range(rank)] for _ in range(3)]
        for basis in bases:
            for b in range(4):
                assert (matgroup._digit_width(basis, b)
                        == entrywise_width(basis, b))

    @pytest.mark.parametrize("key,basis", PACKED_EDGE_BASES.items(),
                             ids=list(PACKED_EDGE_BASES))
    @pytest.mark.parametrize("b", [0, 1, 2, 3])
    def test_packed_edge_cases(self, key, basis, b):
        for whole in (False, True):
            want = reference_values(basis, b, whole)
            assert shell_values(basis, b, whole) == want
            if key == "zero-row":
                assert not any(v for _, v in want)


def _first_box_reference(m, ctx, bound):
    """The deduplicated reference hits, with their orders, of the smallest
    box b <= bound that holds one; [] when no such box exists."""
    lattices = reversor_lattices(m)[:1 + ctx.projective]
    for b in range(bound + 1):
        found = []
        for _, _, x, _ in reference_enumeration(lattices, b):
            rep = canonical_sign(x) if ctx.projective else x
            if all(rep != y for y, _ in found):
                found.append((rep, finite_order_test(rep, ctx.projective)))
        if found:
            return found
    return []


def _nxn_inputs():
    for key, rows in NAMED.items():
        m = IntMatrix(rows)
        if m.n < 3:
            continue
        yield pytest.param(m, id=key)
        for seed in (1, 2):
            yield pytest.param(conjugate(m, seed), id=f"{key}^P{seed}")


def _scalar(sign):
    return IntMatrix([[sign * (i == j) for j in range(3)] for i in range(3)])


class TestMirrorOrderRule:
    """search_reversors takes the order of a mirror -X from the order k of
    X, calling `_order` only for k not infinite, not 2 and not divisible
    by 4; every listed order must be that of `finite_order_test`."""

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("projective,want", [
        (False, {None: 5376, 6: 764, 4: 348, 3: 308, 2: 163, 1: 1}),
        (True, {None: 2688, 6: 228, 4: 174, 3: 308, 2: 81, 1: 1}),
    ])
    def test_scalar_inputs_meet_every_branch(self, sign, projective, want):
        # every X with entries in {-1, 0, 1} and det +-1 reverses +-I: the
        # orders 1, 2, 3, 4, 6 and infinite all occur, and X = -I, of order
        # 2, is listed before its mirror I, of order 1
        ctx = GroupContext(3, projective)
        reversors = search_reversors(_scalar(sign), ctx, 1)
        assert len(reversors) == (3480 if projective else 6960)
        assert Counter(k for _, k in reversors) == want
        assert all(k == finite_order_test(x, projective)
                   for x, k in reversors)

    @pytest.mark.parametrize("m", list(_nxn_inputs()))
    @pytest.mark.parametrize("projective", [False, True])
    def test_named_inputs_and_conjugates(self, m, projective):
        for bound in range(1, 4):
            for x, k in search_reversors(m, GroupContext(m.n, projective),
                                         bound):
                assert k == finite_order_test(x, projective)


class TestFirstBoxRule:
    @pytest.mark.parametrize("m", list(_nxn_inputs()))
    @pytest.mark.parametrize("projective", [False, True])
    def test_listing_and_status(self, m, projective):
        ctx = GroupContext(m.n, projective)
        cp = char_poly(m)
        obstructed = (not pgl_reciprocity_ok(cp) if projective
                      else reciprocity_class(cp) == RECIPROCAL_NONE)
        lattices = reversor_lattices(m)[:1 + projective]
        jordan = _jordan_content(m, cp, lattices[0])
        for bound in range(5):
            want = _first_box_reference(m, ctx, bound)
            assert search_reversors(m, ctx, bound) == want
            # the status the full box at the requested bound gives, or for
            # a single 3x3 Jordan block with no reversor in it, its gcd
            if next(reference_enumeration(lattices, bound), None):
                status = STATUS_CLASSIFIED
            elif jordan is not None:
                status = (STATUS_CLASSIFIED if jordan[0] == 1
                          else STATUS_IRREVERSIBLE)
            else:
                status = (STATUS_IRREVERSIBLE if obstructed
                          else STATUS_INCONCLUSIVE)
            report = analyze(m, ctx, bound)
            assert report.status == status
            assert report.reversor_bound == bound

    def test_box_0_is_not_walked(self, monkeypatch):
        # box 0 holds only X = 0, so the n >= 3 walk starts at box 1
        walked = []

        def spy(lattices, bound):
            walked.append(bound)
            return _enumerate_unimodular(lattices, bound)
        monkeypatch.setattr(matgroup, "_enumerate_unimodular", spy)
        m = IntMatrix(NAMED["jordan3"])
        assert search_reversors(m, GroupContext(3), 0) == []
        assert walked == []
        assert search_reversors(m, GroupContext(3), 4)
        assert walked[0] == 1


# a conjugate of 2 1 0; 1 1 0; 0 0 1 whose first reversor lies on a shell
# past 10 and no further than 30, and an input with no reversor up to 30
CONJUGATE_3X3 = [[25, -55, 28], [-19, 44, -22], [-57, 129, -65]]
NO_REVERSOR_UP_TO_30 = [[1, 3, 1], [3, 10, 1], [0, 0, 1]]


class TestLargeBoundAnswers:
    """Answers at bound 30, past every benchmark input's first shell."""

    def test_conjugate_is_classified_at_bound_30(self):
        report = analyze(IntMatrix(CONJUGATE_3X3), GroupContext(3), 30)
        assert report.status == STATUS_CLASSIFIED
        assert report.reversor_bound == 30
        r = IntMatrix([[-10, 19, -10], [9, -20, 10], [27, -57, 29]])
        assert report.reversors == [(r, 2), (-r, 2)]

    def test_conjugate_is_inconclusive_at_bound_10(self):
        report = analyze(IntMatrix(CONJUGATE_3X3), GroupContext(3), 10)
        assert report.status == STATUS_INCONCLUSIVE
        assert report.reversor_bound == 10
        assert report.reversors == []

    def test_no_reversor_up_to_bound_30(self):
        report = analyze(IntMatrix(NO_REVERSOR_UP_TO_30), GroupContext(3), 30)
        assert report.status == STATUS_INCONCLUSIVE
        assert report.reversor_bound == 30
        assert report.reversors == []


# a single 3x3 Jordan block for eigenvalue 1 whose reversor lattice scales
# the eigenvector by d = (-2, 0, 0) on its basis, and its negative (eps = -1)
JORDAN_GCD2 = [[1, -4, 0], [0, 1, 0], [4, -1, 1]]


def _jordan_gcd2_inputs():
    for sign in (1, -1):
        m = IntMatrix(JORDAN_GCD2).scaled(sign)
        for seed in (0, 1, 2, 3):
            yield pytest.param(m if seed == 0 else conjugate(m, seed, 4),
                               id=f"{sign:+d}^P{seed}")


# single 3x3 Jordan blocks whose d has gcd 1 on the reversor lattice
JORDAN_GCD1 = ([[1, 1, 0], [0, 1, 1], [0, 0, 1]],
               [[1, 2, 0], [0, 1, 3], [0, 0, 1]],
               [[1, 4, 0], [0, 1, 4], [0, 0, 1]],
               [[1, 1, 0], [0, 1, 2], [0, 0, 1]])


def _jordan_gcd1_inputs():
    for k, rows in enumerate(JORDAN_GCD1):
        for sign in (1, -1):
            m = IntMatrix(rows).scaled(sign)
            for seed in (0, 1, 2):
                yield pytest.param(
                    m if seed == 0 else conjugate(m, f"gcd1/{k}/{seed}", 4),
                    id=f"{k}{sign:+d}^P{seed}")


# single unipotent Jordan blocks at n >= 4: rows, the content of d on the
# reversor lattice, and det X as the irreversibility reason writes it
JORDAN_BLOCKS = {
    "J4": ([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]],
           1, "d^4"),
    "J5": ([[int(j in (i, i + 1)) for j in range(5)] for i in range(5)],
           1, "d^5"),
    "J4c3": ([[1, 1, 0, 0], [0, 1, 3, 1], [0, 0, 1, 1], [0, 0, 0, 1]],
             3, "d^4"),
    "J4c2": ([[1, 1, 0, 0], [0, 1, 4, 1], [0, 0, 1, 1], [0, 0, 0, 1]],
             2, "d^4"),
    "J5c3": ([[1, 1, 0, 0, 0], [0, 1, 3, 1, 0], [0, 0, 1, 1, 0],
              [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]], 3, "d^5"),
    "J6c3": ([[1, 1, 0, 0, 0, 0], [0, 1, 3, 1, 0, 0], [0, 0, 1, 1, 0, 0],
              [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 1]],
             3, "-d^6"),
}


class TestJordanBlock:
    """A single unipotent Jordan block f = eps*(I + N) is decided by one
    gcd."""

    @pytest.mark.parametrize("m", list(_jordan_gcd2_inputs()))
    @pytest.mark.parametrize("projective", [False, True])
    def test_gcd_two_is_irreversible(self, m, projective):
        ctx = GroupContext(3, projective)
        for bound in (0, 1, 10):
            report = analyze(m, ctx, bound)
            assert report.status == STATUS_IRREVERSIBLE
            assert report.reversors == []
            assert "divisible by 2" in report.irreversibility_reason
            assert report.reversor_bound == bound

    @pytest.mark.parametrize("m", list(_jordan_gcd2_inputs()))
    def test_determinant_is_minus_d_cubed(self, m):
        """The argument behind the gcd: X v = d*v and det X = -d^3 on the
        reversor lattice, for v spanning the eigenline."""
        eps = -char_poly(m).coeffs[0]
        nil = [[eps * v - (i == j) for j, v in enumerate(row)]
               for i, row in enumerate(m.rows)]
        (v,) = matgroup._integer_kernel(nil, 3)
        (basis,) = reversor_lattices(m)[:1]
        assert reversor_lattices(m)[1] == []
        for coeffs in itertools.product(range(-2, 3), repeat=len(basis)):
            x = _combiner(basis, 3)(coeffs)
            xv = [sum(a * b for a, b in zip(row, v)) for row in x.rows]
            k = next(i for i, c in enumerate(v) if c)
            d = xv[k] // v[k]
            assert xv == [d * c for c in v]
            assert mat_det(x) == -d ** 3
            assert d % 2 == 0

    @pytest.mark.parametrize("rows", [
        [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
        [[1, 2, 0], [0, 1, 3], [0, 0, 1]],
        [[1, 4, 0], [0, 1, 4], [0, 0, 1]],
    ])
    @pytest.mark.parametrize("projective", [False, True])
    def test_gcd_one_keeps_its_answer(self, rows, projective):
        m = IntMatrix(rows)
        ctx = GroupContext(3, projective)
        cp = char_poly(m)
        content, x = _jordan_content(
            m, cp, matgroup._reversor_lattices(m, ctx, cp)[0])
        assert content == 1
        assert is_reversor(x, m, ctx)
        assert analyze(m, ctx).status == STATUS_CLASSIFIED
        # the box at bound 0 holds no reversor: the gcd builds the one listed
        assert search_reversors(m, ctx, 0) == []
        report = analyze(m, ctx, 0)
        assert report.status == STATUS_CLASSIFIED
        assert report.reversors == [
            (canonical_sign(x) if projective else x,
             finite_order_test(x, projective))]

    @pytest.mark.parametrize("m", list(_jordan_gcd1_inputs()))
    @pytest.mark.parametrize("projective", [False, True])
    def test_gcd_one_is_classified_with_no_box(self, m, projective):
        """Seeded conjugates of gcd-1 blocks, for both eigenvalues, are
        classified at bound 0 with one reversor, of determinant -d^3 for
        d = +-1 on the eigenline."""
        ctx = GroupContext(3, projective)
        report = analyze(m, ctx, 0)
        assert report.status == STATUS_CLASSIFIED
        assert report.classification_case == CASE_UNCLASSIFIED
        assert report.reversor_bound == 0
        [(x, order)] = report.reversors
        assert is_reversor(x, m, ctx)
        assert mat_det(x) in (1, -1)
        assert order == finite_order_test(x, projective)
        if projective:
            assert x == canonical_sign(x)

    @pytest.mark.parametrize("rows", [
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]],    # Jordan type (2, 1): N^2 = 0
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],    # N = 0
        [[0, 1, 0], [0, 0, 1], [1, -4, 4]],   # chi not a cube
        [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],  # N^3 = 0
    ])
    def test_other_inputs_are_not_read(self, rows):
        m = IntMatrix(rows)
        (basis,) = matgroup._reversor_lattices(m, GroupContext(m.n),
                                              char_poly(m))
        assert _jordan_content(m, char_poly(m), basis) is None

    @pytest.mark.parametrize("key", list(JORDAN_BLOCKS))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_every_size_is_read(self, key, sign):
        """At every n the content is read, a content of 1 builds a
        reversor, and det X = (-1)^(n(n-1)/2) * d^n on the lattice."""
        rows, want, _ = JORDAN_BLOCKS[key]
        m = IntMatrix(rows).scaled(sign)
        n = m.n
        (basis,) = matgroup._reversor_lattices(m, GroupContext(n),
                                              char_poly(m))
        content, x = _jordan_content(m, char_poly(m), basis)
        assert content == want
        assert content != 1 or is_reversor(x, m, GroupContext(n))
        nil = [[sign * v - (i == j) for j, v in enumerate(row)]
               for i, row in enumerate(m.rows)]
        (v,) = matgroup._integer_kernel(nil, n)
        xv = [sum(a * b for a, b in zip(row, v)) for row in x.rows]
        assert xv in ([content * c for c in v], [-content * c for c in v])
        k = next(i for i, c in enumerate(v) if c)
        for coeffs in itertools.product(range(-1, 2), repeat=len(basis)):
            x = _combiner(basis, n)(coeffs)
            d = sum(a * b for a, b in zip(x.rows[k], v)) // v[k]
            assert mat_det(x) == (-1) ** (n * (n - 1) // 2) * d ** n
            assert d % content == 0

    @pytest.mark.parametrize("key", [k for k, (_, content, _)
                                     in JORDAN_BLOCKS.items() if content > 1])
    @pytest.mark.parametrize("projective", [False, True])
    def test_content_above_one_names_the_sign(self, key, projective):
        rows, content, power = JORDAN_BLOCKS[key]
        m = IntMatrix(rows)
        report = analyze(m, GroupContext(m.n, projective), 0)
        assert report.status == STATUS_IRREVERSIBLE
        assert report.irreversibility_reason.endswith(
            f"divisible by {content}, so det X = {power} is never +-1")


# n >= 3 inputs whose status is exact at bound 0, with that status: two
# obstructed by their characteristic polynomials, and single unipotent
# Jordan blocks decided by the content of d
EXACT_NXN = {
    "n4": (NAMED["n4"], STATUS_IRREVERSIBLE),
    "fib+1": ([[0, 1, 0], [1, 1, 0], [0, 0, 1]], STATUS_IRREVERSIBLE),
    "J3": (NAMED["jordan3"], STATUS_CLASSIFIED),
    "J4": (JORDAN_BLOCKS["J4"][0], STATUS_CLASSIFIED),
    "J5": (JORDAN_BLOCKS["J5"][0], STATUS_CLASSIFIED),
    "J3c2": (JORDAN_GCD2, STATUS_IRREVERSIBLE),
    "J4c3": (JORDAN_BLOCKS["J4c3"][0], STATUS_IRREVERSIBLE),
    "J4c2": (JORDAN_BLOCKS["J4c2"][0], STATUS_IRREVERSIBLE),
}


class TestExactStatusesUnderConjugation:
    """An exact n >= 3 status, and its reason, survive P f P^-1: the
    obstruction is read from the characteristic polynomial and the content
    of d is a conjugation invariant."""

    @pytest.mark.parametrize("key", list(EXACT_NXN))
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("projective", [False, True])
    def test_status_and_reason(self, key, sign, projective):
        rows, status = EXACT_NXN[key]
        m = IntMatrix(rows).scaled(sign)
        ctx = GroupContext(m.n, projective)
        want = analyze(m, ctx, 0)
        assert want.status == status
        for steps in (3, 6, 9, 12):
            c = conjugate(m, f"exact/{key}/{sign}/{steps}", steps)
            report = analyze(c, ctx, 0)
            assert (report.status, report.irreversibility_reason) == \
                (want.status, want.irreversibility_reason), c
            for x, order in report.reversors:
                assert is_reversor(x, c, ctx)
                assert order == finite_order_test(x, projective)


def entrywise_combination(basis, coeffs):
    """sum c_i B_i by the definition, one sum per entry."""
    n = basis[0].n
    return tuple(tuple(sum(c * b.rows[i][j] for c, b in zip(coeffs, basis))
                       for j in range(n)) for i in range(n))


class TestCombination:
    """`_combiner` has a closed form for two 2x2 matrices and one dot
    product per entry otherwise; both must give the per-entry sum."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_entrywise_sums(self, n, rank):
        rng = random.Random(f"combination/{n}/{rank}")
        for case in range(40):
            scale = 10 ** 30 if case % 4 == 3 else 1
            basis = [IntMatrix([[scale * rng.randint(-9, 9) for _ in range(n)]
                                for _ in range(n)]) for _ in range(rank)]
            coeffs = tuple(0 if case % 5 == 0 and k == 0
                           else rng.randint(-12, 12) for k in range(rank))
            x = _combiner(basis, n)(coeffs)
            assert x.n == n
            assert x.rows == entrywise_combination(basis, coeffs)
            assert IntMatrix(x.rows) == x

    @pytest.mark.parametrize("key", [k for k, rows in NAMED.items()
                                     if len(rows) == 2])
    def test_reversor_lattice_points(self, key):
        lattices = reversor_lattices(IntMatrix(NAMED[key]))
        assert 2 in map(len, lattices)
        for basis in filter(None, lattices):
            for coeffs in itertools.product(range(-3, 4), repeat=len(basis)):
                assert (_combiner(basis, 2)(coeffs).rows
                        == entrywise_combination(basis, coeffs))
