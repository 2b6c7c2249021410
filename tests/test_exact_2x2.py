"""The exact GL(2,Z) / PGL(2,Z) decision: the binary quadratic form routine
against brute force, and `analyze` answers that do not change under
conjugation P*M*P^-1, whatever the reversor bound."""

import itertools
import random
from collections import Counter
from math import isqrt

import pytest

import revsym.matgroup as matgroup
from revsym.exactmath import (
    IntMatrix,
    _signed_identity,
    finite_order_test,
    mat_det,
    mat_mul,
)
from revsym.matgroup import (
    CASE_DINF,
    CASE_ONE,
    CASE_THREE,
    CASE_TWO,
    CASE_UNCLASSIFIED,
    GroupContext,
    STATUS_CLASSIFIED,
    STATUS_IRREVERSIBLE,
    _classify_from,
    _represent_unit,
    analyze,
    ctx_eq,
    find_conjugator,
    is_reversor,
    search_reversors,
    symmetry_generator_2x2,
)
from test_matgroup import C3, M4, N4, N4P, RR, conjugation

FIB = ((0, 1), (1, 1))

# key -> (rows, projective, status, classification case)
NAMED = {
    "case1": (((1, 2), (1, 3)), False, STATUS_CLASSIFIED, CASE_ONE),
    "case2": (((5, 7), (7, 10)), False, STATUS_CLASSIFIED, CASE_TWO),
    "case3": (((1, 1), (1, 2)), False, STATUS_CLASSIFIED, CASE_THREE),
    "fib-gl": (FIB, False, STATUS_IRREVERSIBLE, None),
    "fib-pgl": (FIB, True, STATUS_CLASSIFIED, CASE_DINF),
    "fib2-pgl": (((1, 1), (1, 2)), True, STATUS_CLASSIFIED, CASE_DINF),
    "shear": (((1, 1), (0, 1)), False, STATUS_CLASSIFIED, CASE_UNCLASSIFIED),
    "order6": (((0, -1), (1, 1)), False, STATUS_CLASSIFIED,
               CASE_UNCLASSIFIED),
    # [[0,1],[1,2]]^2 = I + 2*[[0,1],[1,2]]: the commutant is larger than
    # Z[m], and reversors of orders 2 and 4 both occur
    "pell-square": (((1, 2), (2, 5)), False, STATUS_CLASSIFIED, CASE_THREE),
}


def random_unimodular(rng, steps):
    """(P, P^-1) for P a product of `steps` elementary row additions."""
    p = [[1, 0], [0, 1]]
    pinv = [[1, 0], [0, 1]]
    for _ in range(steps):
        i, j = rng.sample(range(2), 2)
        k = rng.choice((-1, 1))
        p[i] = [a + k * b for a, b in zip(p[i], p[j])]
        for row in pinv:
            row[j] -= k * row[i]
    return IntMatrix(p), IntMatrix(pinv)


def conjugates(key, seed, max_steps=12):
    """The named input, then P*M*P^-1 for three P of each of 1..max_steps
    steps."""
    rng = random.Random(seed)
    m = IntMatrix(NAMED[key][0])
    yield IntMatrix.identity(2), m, IntMatrix.identity(2)
    for steps in [s for s in range(1, max_steps + 1) for _ in range(3)]:
        p, pinv = random_unimodular(rng, steps)
        yield p, mat_mul(mat_mul(p, m), pinv), pinv


class TestRepresentUnit:
    def test_agrees_with_brute_force(self):
        # every form in this range that takes +-1 does so with
        # |x|, |y| <= 13, so the box below is exhaustive for it
        monomials = [(x * x, x * y, y * y)
                     for x, y in itertools.product(range(-15, 16), repeat=2)]
        for a, b, c in itertools.product(range(-6, 7), repeat=3):
            sol = _represent_unit(a, b, c)
            found = any(a * u + b * v + c * w in (1, -1)
                        for u, v, w in monomials)
            assert (sol is not None) == found, (a, b, c)
            if sol is not None:
                x, y = sol
                assert a * x * x + b * x * y + c * y * y in (1, -1)

    @pytest.mark.parametrize("form, represented", [
        ((1, 1, -1), True),     # indefinite: the norm form of Z[phi]
        ((1, 0, -10), True),    # indefinite, discriminant 40
        ((2, 0, -5), False),    # discriminant 40: 2x^2 = +-1 mod 5 fails
        ((1, 1, 1), True),      # definite
        ((2, 1, 3), False),     # definite, reduced, minimum 2
        ((2, 5, 2), True),      # (2x + y)(x + 2y)
        ((2, 7, 3), False),     # (2x + y)(x + 3y): 3e1 - e2 = 0 mod 5 fails
        ((0, 1, 0), True),      # x*y
        ((4, 4, 1), True),      # (2x + y)^2
        ((2, 2, 2), False),     # content 2
    ])
    def test_large_equivalent_forms(self, form, represented):
        # Q(U (x, y)) for large unimodular U: same values, large coefficients
        rng = random.Random(repr(form))
        a, b, c = form
        for _ in range(5):
            u, _ = random_unimodular(rng, 40)
            (p, r), (q, s) = u.rows
            big = (a * p * p + b * p * q + c * q * q,
                   2 * a * p * r + b * (p * s + q * r) + 2 * c * q * s,
                   a * r * r + b * r * s + c * s * s)
            sol = _represent_unit(*big)
            assert (sol is not None) == represented, big
            if sol is not None:
                x, y = sol
                assert big[0] * x * x + big[1] * x * y + big[2] * y * y \
                    in (1, -1)


class TestConjugationInvariance:
    @pytest.mark.parametrize("key", sorted(NAMED))
    @pytest.mark.parametrize("bound", [10, 0])
    def test_status_and_case(self, key, bound):
        _, projective, status, case = NAMED[key]
        ctx = GroupContext(2, projective)
        for _, m, _ in conjugates(key, seed=f"{key}/{bound}"):
            report = analyze(m, ctx, reversor_bound=bound)
            assert (report.status, report.classification_case) == \
                (status, case), m
            for r, order in report.reversors:
                assert is_reversor(r, m, ctx)
                assert order == finite_order_test(r, projective)

    @pytest.mark.parametrize("key", ["case1", "case2", "case3", "fib-pgl",
                                     "fib2-pgl", "pell-square"])
    def test_symmetry_generator_is_conjugated(self, key):
        rows, projective, _, _ = NAMED[key]
        ctx = GroupContext(2, projective)
        base = symmetry_generator_2x2(IntMatrix(rows), ctx)
        for p, m, pinv in conjugates(key, seed=key):
            desc = symmetry_generator_2x2(m, ctx)
            assert desc.generator == mat_mul(mat_mul(p, base.generator), pinv)
            assert (desc.f_sign, desc.f_exponent) == \
                (base.f_sign, base.f_exponent)


def test_far_case3_conjugate_is_classified():
    # P*[[1,1],[1,2]]*P^-1 with P = [[13,8],[8,5]]: the reversor lies at
    # coefficients (-795, 668) of the lattice basis, far outside the box
    m = IntMatrix([[-127, 209], [-79, 130]])
    gl2 = GroupContext(2)
    report = analyze(m, gl2)
    assert report.status == STATUS_CLASSIFIED
    assert report.classification_case == CASE_THREE
    [(r, order)] = report.reversors
    assert is_reversor(r, m, gl2)
    assert order == finite_order_test(r)


def test_generator_of_a_commutant_larger_than_z_m():
    m = IntMatrix([[1, 2], [2, 5]])
    gl2 = GroupContext(2)
    desc = symmetry_generator_2x2(m, gl2)
    assert desc.generator == IntMatrix([[0, 1], [1, 2]])
    assert (desc.f_sign, desc.f_exponent) == (1, 2)
    spectrum = {order for _, order in search_reversors(m, gl2, 5)}
    assert spectrum == {2, 4}
    assert analyze(m, gl2).classification_case == CASE_THREE


class TestExactConjugacy:
    """`find_conjugator` decides 2x2 conjugacy at every bound: the
    determinant form finds a witness far outside the coefficient box."""

    @pytest.mark.parametrize("key", ["case1", "case2", "case3", "fib-gl",
                                     "shear", "order6"])
    @pytest.mark.parametrize("projective", [False, True])
    def test_far_conjugates_have_a_witness(self, key, projective):
        ctx = GroupContext(2, projective)
        m = IntMatrix(NAMED[key][0])
        for bound in (10, 0):
            for _, c, _ in conjugates(key, f"{key}/{bound}", max_steps=24):
                x = find_conjugator(m, c, ctx, bound)
                assert x is not None, c
                assert mat_det(x) in (1, -1)
                assert ctx_eq(mat_mul(x, m), mat_mul(c, x), ctx)

    @pytest.mark.parametrize("a, b", [
        # same characteristic polynomial, but the content of m - m[0][0]*I
        # is 2 for one and 1 for the other, and conjugation keeps it
        ([[1, 2], [2, 5]], [[0, 1], [-1, 6]]),
        # the intertwiner lattice has rank 1, so every X in it is singular
        ([[1, 0], [0, -1]], [[1, 1], [0, 1]]),
    ])
    @pytest.mark.parametrize("projective", [False, True])
    @pytest.mark.parametrize("bound", [0, 10])
    def test_non_conjugate_pairs(self, a, b, projective, bound):
        ctx = GroupContext(2, projective)
        assert find_conjugator(IntMatrix(a), IntMatrix(b), ctx,
                               bound) is None
        assert find_conjugator(IntMatrix(b), IntMatrix(a), ctx,
                               bound) is None


def test_empty_box_gives_one_reversor():
    m = IntMatrix([[-127, 209], [-79, 130]])
    gl2 = GroupContext(2)
    [(r, order)] = search_reversors(m, gl2, 0)
    assert is_reversor(r, m, gl2)
    assert order == finite_order_test(r)


def _sign_of(m: IntMatrix):
    ident, neg = _signed_identity(m.n)
    return 1 if m.rows == ident else -1 if m.rows == neg else None


def classify_by_retry(desc, r, ctx):
    """The case by normalising r: an order-4 reversor with sigma(g)*g = -I
    is replaced by the involution r*g, and the table is read again."""
    g = desc.generator
    for _ in range(2):
        involutory = _sign_of(mat_mul(r, r)) == 1
        sigma_gg = _sign_of(mat_mul(conjugation(r, g), g))
        if sigma_gg == 1:
            return CASE_ONE if involutory else CASE_TWO
        if involutory:
            return CASE_THREE
        r = mat_mul(r, g)
    raise AssertionError("r -> r*g must end in one step")


def test_classification_rule_agrees_with_retry():
    """Every reversor of every classified hyperbolic GL input with entries
    in [-6, 6] gives the case of the reference normalisation."""
    gl2 = GroupContext(2)
    inputs = retried = 0
    for rows in itertools.product(range(-6, 7), repeat=4):
        m = IntMatrix([rows[:2], rows[2:]])
        if mat_det(m) not in (1, -1):
            continue
        report = analyze(m, gl2)
        desc = report.symmetry_descriptor
        if report.status != STATUS_CLASSIFIED or desc is None:
            continue
        inputs += 1
        for r, order in report.reversors:
            case = _classify_from(desc, (r, order))
            assert case == classify_by_retry(desc, r, gl2) \
                == report.classification_case, (m, r)
            retried += order == 4 and case == CASE_THREE
    assert inputs == 216
    assert retried > 0


# the eight named 2x2 inputs of the analyze-2x2 benchmark workload
BENCH_2X2 = {
    "case1": ((1, 2), (1, 3)),
    "case2": ((5, 7), (7, 10)),
    "case3": ((1, 1), (1, 2)),
    "fib-pgl": FIB,
    "fib-gl": FIB,
    "fib2-pgl": ((1, 1), (1, 2)),
    "shear": ((1, 1), (0, 1)),
    "order6": ((0, -1), (1, 1)),
}


@pytest.mark.parametrize("projective", [False, True])
@pytest.mark.parametrize("key", list(BENCH_2X2))
def test_analyze_never_runs_the_checking_constructor(monkeypatch, key,
                                                     projective):
    """Every matrix `analyze` builds from a checked input goes through the
    trusted constructor; the public one is left to outside input."""
    m, ctx = IntMatrix(BENCH_2X2[key]), GroupContext(2, projective)
    expected = analyze(m, ctx)
    calls = []
    checked_init = IntMatrix.__init__

    def counting_init(self, rows):
        calls.append(rows)
        checked_init(self, rows)

    monkeypatch.setattr(IntMatrix, "__init__", counting_init)
    report = analyze(m, ctx)
    assert calls == []
    assert report == expected
    IntMatrix([[1]])
    assert len(calls) == 1  # the counter sees the public constructor


@pytest.mark.parametrize("projective", [False, True])
@pytest.mark.parametrize("key", list(BENCH_2X2))
def test_analyze_takes_the_generator_from_its_one_entry(monkeypatch, key,
                                                        projective):
    """`analyze` asks the checked `symmetry_generator_2x2` once for each
    hyperbolic input of infinite order, never otherwise, and reports what
    it returned."""
    ctx, rng = GroupContext(2, projective), random.Random(key)
    m = IntMatrix(BENCH_2X2[key])
    inputs = [m] + [mat_mul(mat_mul(p, m), pinv) for p, pinv in
                    (random_unimodular(rng, steps) for steps in (3, 7))]
    calls, generator = [], symmetry_generator_2x2

    def spy(*args):
        calls.append((args, generator(*args)))
        return calls[-1][1]

    monkeypatch.setattr(matgroup, "symmetry_generator_2x2", spy)
    for f in inputs:
        calls.clear()
        report = analyze(f, ctx)
        t, det = f.trace(), mat_det(f)
        if (det == 1 and abs(t) > 2) or (det == -1 and t != 0):
            ((args, desc),) = calls
            assert args[0] is f and args[1] is ctx
            assert report.symmetry_descriptor is desc
        else:
            assert key in ("shear", "order6")
            assert calls == [] and report.symmetry_descriptor is None
    calls.clear()
    for f in (C3, M4, N4, N4P, RR):
        for big in (GroupContext(f.n), GroupContext(f.n, projective=True)):
            report = analyze(f, big)
            assert calls == [] and report.symmetry_descriptor is None


def _reduced_forms(disc):
    """Every reduced form (a, b, c) of a nonsquare discriminant D > 0:
    0 < b < sqrt(D) and |sqrt(D) - 2|a|| < b."""
    root = isqrt(disc)
    forms = []
    for b in range(2 - disc % 2, root + 1, 2):
        ac = (b * b - disc) // 4
        for a in range(1, -ac + 1):
            if ac % a == 0 and (2 * a + b) ** 2 > disc \
                    and max(0, 2 * a - b) ** 2 < disc:
                forms += [(a, b, ac // a), (-a, b, -ac // a)]
    return forms


def _next_reduced(form, disc):
    """The right neighbour of a reduced form on its cycle: (c, b', a') with
    b' = -b (mod 2|c|) and sqrt(D) - 2|c| < b' < sqrt(D)."""
    _, b, c = form
    root, width = isqrt(disc), 2 * abs(c)
    b2 = root - (root + b) % width
    return c, b2, (b2 * b2 - disc) // (4 * c)


def _form_classes(disc):
    """The proper classes of discriminant D, as the sets of reduced forms on
    each cycle."""
    left, classes = set(_reduced_forms(disc)), []
    while left:
        cycle, form = set(), min(left)
        while form not in cycle:
            cycle.add(form)
            form = _next_reduced(form, disc)
        classes.append(cycle)
        left -= cycle
    return classes


def _census(max_trace):
    """(f, det, [Q] = [Q^-1], [Q] = [-Q]) for one f per proper class of
    hyperbolic forms Q = (A, B, C) of discriminant t^2 - 4*det, det = +-1,
    t <= max_trace: f = [[(t - B)/2, -C], [A, (t + B)/2]], whose form
    (c, d - a, -b) is Q.  Q^-1 = (A, -B, C) is properly equivalent to the
    reduced (C, B, A), and -Q to (-C, B, -A), by (x, y) -> (-y, x)."""
    for det, first in ((1, 3), (-1, 1)):
        for t in range(first, max_trace + 1):
            for cycle in _form_classes(t * t - 4 * det):
                a, b, c = min(cycle)
                f = IntMatrix([[(t - b) // 2, -c], [a, (t + b) // 2]])
                yield f, det, (c, b, a) in cycle, (-c, b, -a) in cycle


def test_form_class_census():
    """`analyze` on one input per proper class of hyperbolic forms, against
    the relations of the class of Q_f: in GL, det 1, [Q] = [Q^-1] only
    gives case 1, [Q] = [-Q] only case 2, both case 3, and neither proves
    f irreversible; in PGL, f is reversible exactly when either relation
    holds at det 1, and when [Q] = [Q^-1] at det -1."""
    gl2, pgl2 = GroupContext(2), GroupContext(2, projective=True)
    cases = {(True, False): CASE_ONE, (False, True): CASE_TWO,
             (True, True): CASE_THREE}
    tally = Counter()
    for f, det, inverse, negative in _census(40):
        tally[det, inverse, negative] += 1
        if det == 1:
            report = analyze(f, gl2)
            case = cases.get((inverse, negative))
            assert report.status == (STATUS_IRREVERSIBLE if case is None
                                     else STATUS_CLASSIFIED), f
            assert report.classification_case == case, f
        reversible = inverse or det == 1 and negative
        report = analyze(f, pgl2)
        assert report.status == (STATUS_CLASSIFIED if reversible
                                 else STATUS_IRREVERSIBLE), f
        assert report.classification_case == (CASE_DINF if reversible
                                               else None), f
    # 387 classes, each relation pattern met
    assert tally == {(1, True, False): 202, (1, False, True): 6,
                     (1, True, True): 10, (1, False, False): 36,
                     (-1, True, True): 83, (-1, False, False): 50}
