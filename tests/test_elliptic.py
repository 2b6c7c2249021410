import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from revsym.elliptic import (
    Curve,
    CurveMap,
    _apply,
    add,
    check_reversor_on_samples,
    compose_maps,
    is_on_curve,
    map_order_two,
    neg_translation,
    point,
    sample_points,
    scalar_mul,
    translation,
)

C1 = Curve(0, 1)    # y^2 = x^3 + 1: rational points form a 6-cycle
C2 = Curve(-1, 0)   # y^2 = x^3 - x: full 2-torsion
P23 = point(2, 3)
P01 = point(0, 1)
PM10 = point(-1, 0)

C1_POINTS = [None, P23, P01, PM10, point(0, -1), point(2, -3)]
C2_POINTS = [None, point(0, 0), point(1, 0), point(-1, 0)]

# every public entry point checks the points it is given; only the
# module's own sums of checked or built points skip the check
OFF = point(1, 1)
OFF_CALLS = {
    "add-left": lambda: add(C1, OFF, P23),
    "add-right": lambda: add(C1, None, OFF),
    "scalar_mul": lambda: scalar_mul(C1, 5, OFF),
    "scalar_mul-negative": lambda: scalar_mul(C1, -3, OFF),
    "scalar_mul-zero": lambda: scalar_mul(C1, 0, OFF),
    "compose_maps-first": lambda: compose_maps(
        C1, CurveMap(1, OFF), CurveMap(1, P23)),
    "compose_maps-second": lambda: compose_maps(
        C1, CurveMap(1, P23), CurveMap(1, OFF)),
    "compose_maps-reflected-second": lambda: compose_maps(
        C1, CurveMap(-1, P23), CurveMap(-1, OFF)),
    "map_order_two": lambda: map_order_two(C1, CurveMap(-1, OFF)),
    # omega and s are checked once, at entry, before any composition
    "reversor-omega": lambda: check_reversor_on_samples(
        C1, OFF, P01, C1_POINTS),
    "reversor-s": lambda: check_reversor_on_samples(
        C1, P23, OFF, C1_POINTS),
    "reversor-sample": lambda: check_reversor_on_samples(
        C1, P23, P01, C1_POINTS + [OFF]),
    "reversor-omega-no-samples": lambda: check_reversor_on_samples(
        C1, OFF, P01, []),
    "reversor-s-no-samples": lambda: check_reversor_on_samples(
        C1, P23, OFF, []),
}


class TestGroupLaw:
    def test_identity(self):
        assert add(C1, P23, None) == P23
        assert add(C1, None, P23) == P23

    def test_frozen_chord_example(self):
        # chord through (2,3) and (0,1): slope 1, third point (-1, 0)
        assert add(C1, P23, P01) == PM10

    def test_frozen_doubling_example(self):
        # tangent at (2,3): slope 2, double is (0,1)
        assert scalar_mul(C1, 2, P23) == P01

    def test_inverse_pair(self):
        assert add(C1, P23, scalar_mul(C1, -1, P23)) == None  # noqa: E711

    def test_neg(self):
        assert scalar_mul(C1, -1, None) is None
        assert scalar_mul(C1, -1, P23) == point(2, -3)
        assert scalar_mul(C1, -1, point(2, -3)) == P23

    def test_six_torsion_cycle(self):
        multiples = [scalar_mul(C1, k, P23) for k in range(7)]
        assert multiples[0] is None
        assert multiples[1] == P23
        assert multiples[2] == P01
        assert multiples[3] == PM10
        assert multiples[4] == point(0, -1)
        assert multiples[5] == point(2, -3)
        assert multiples[6] is None

    def test_scalar_edge_cases(self):
        assert scalar_mul(C1, 0, P23) is None
        assert scalar_mul(C1, 1, P23) == P23
        assert scalar_mul(C1, -2, P23) == point(0, -1)

    def test_closure_and_exactness(self):
        for p in C1_POINTS:
            for q in C1_POINTS:
                assert is_on_curve(C1, add(C1, p, q))
        for p in C2_POINTS:
            for q in C2_POINTS:
                assert is_on_curve(C2, add(C2, p, q))

    def test_commutativity(self):
        for curve, pts in ((C1, C1_POINTS), (C2, C2_POINTS)):
            for p, q in itertools.product(pts, repeat=2):
                assert add(curve, p, q) == add(curve, q, p)

    def test_associativity(self):
        for curve, pts in ((C1, C1_POINTS), (C2, C2_POINTS)):
            for p, q, r in itertools.product(pts, repeat=3):
                assert add(curve, add(curve, p, q), r) == \
                    add(curve, p, add(curve, q, r))

    def test_two_torsion_curve(self):
        for p in C2_POINTS[1:]:
            assert add(C2, p, p) is None

    def test_point_not_on_curve(self):
        with pytest.raises(ValueError, match=r"is not on y\^2 = x\^3"):
            add(C1, point(1, 1), P23)
        with pytest.raises(ValueError) as excinfo:
            add(C1, P23, point(Fraction(1, 2), 1))
        assert str(excinfo.value) == "(1/2, 1) is not on y^2 = x^3 + 0x + 1"

    @pytest.mark.parametrize("name", list(OFF_CALLS))
    def test_public_calls_refuse_an_off_curve_point(self, name):
        with pytest.raises(ValueError,
                           match=r"^\(1, 1\) is not on y\^2 = x\^3"):
            OFF_CALLS[name]()

    def test_singular_curve_rejected(self):
        with pytest.raises(ValueError, match=r"4A\^3 \+ 27B\^2 = 0"):
            Curve(0, 0)
        with pytest.raises(ValueError, match=r"4A\^3 \+ 27B\^2 = 0"):
            Curve(-3, 2)  # 4*(-27) + 27*4 = 0

    def test_rational_coordinates(self):
        # generic chords produce non-integral rational points; stay exact
        p = add(C1, P23, point(0, -1))
        assert is_on_curve(C1, p)
        x, y = p
        assert isinstance(x, Fraction) and isinstance(y, Fraction)


class TestCurveMaps:
    def test_identity_translation(self):
        t = translation(C1, None)
        for p in C1_POINTS:
            assert _apply(C1, t, p) == p

    def test_neg_translation_involution_pointwise(self):
        m = neg_translation(C1, P01)
        for p in C1_POINTS:
            assert _apply(C1, m, _apply(C1, m, p)) == p

    def test_neg_translation_involution_symbolic(self):
        for s in C1_POINTS:
            assert map_order_two(C1, neg_translation(C1, s))

    def test_translation_inverse(self):
        t = translation(C1, P23)
        tinv = translation(C1, scalar_mul(C1, -1, P23))
        for p in C1_POINTS:
            assert _apply(C1, tinv, _apply(C1, t, p)) == p

    def test_compose_translations(self):
        t1 = translation(C1, P23)
        t2 = translation(C1, P01)
        comp = compose_maps(C1, t1, t2)
        assert comp == CurveMap(1, add(C1, P23, P01))

    def test_compose_reflections_is_translation(self):
        m = neg_translation(C1, P01)
        sq = compose_maps(C1, m, m)
        assert sq == CurveMap(1, None)

    def test_conjugation_inverts_translation(self):
        for omega in C1_POINTS:
            for s in C1_POINTS:
                f = translation(C1, omega)
                r = neg_translation(C1, s)
                conj = compose_maps(C1, r, compose_maps(C1, f, r))
                assert conj == CurveMap(1, scalar_mul(C1, -1, omega))

    def test_composition_matches_pointwise(self):
        maps = [translation(C1, P23), neg_translation(C1, P01),
                translation(C1, PM10), neg_translation(C1, point(2, -3))]
        for m1, m2 in itertools.product(maps, repeat=2):
            comp = compose_maps(C1, m1, m2)
            for p in C1_POINTS:
                assert _apply(C1, comp, p) == \
                    _apply(C1, m1, _apply(C1, m2, p))

    def test_sign_validated(self):
        with pytest.raises(ValueError, match="sign must be 1 or -1"):
            CurveMap(0, None)

    def test_base_point_validated(self):
        with pytest.raises(ValueError, match=r"is not on y\^2 = x\^3"):
            translation(C1, point(5, 5))


class TestReversorCheck:
    def test_trivial_translation(self):
        assert check_reversor_on_samples(C1, None, P01, C1_POINTS)

    def test_frozen_example(self):
        assert check_reversor_on_samples(C1, P23, P01,
                                         [P01, P23, PM10, None])

    def test_mismatched_claim_fails(self):
        # r o f o r equals translation by -omega; translation by omega differs
        f = translation(C1, P23)
        r = neg_translation(C1, P01)
        conj = compose_maps(C1, r, compose_maps(C1, f, r))
        assert conj != f

    def test_two_torsion_curve_samples(self):
        assert check_reversor_on_samples(C2, point(0, 0), point(1, 0),
                                         C2_POINTS)


class TestSamples:
    def test_sample_generation(self):
        samples = sample_points(C1, [P23])
        assert len(samples) == 6  # the full rational point set
        assert len(samples) == len(set(samples))
        assert all(is_on_curve(C1, p) for p in samples)

    def test_sample_generation_two_torsion(self):
        samples = sample_points(C2, [point(0, 0), point(1, 0)])
        assert len(samples) == 4
        assert len(samples) == len(set(samples))
        assert all(is_on_curve(C2, p) for p in samples)
        assert {None, point(0, 0), point(1, 0), point(-1, 0)} == set(samples)


def compose_maps_reference(curve, m1, m2):
    """m1 o m2 written out for each of the four pairs of map signs."""
    a, b = m1.base, m2.base
    if m1.sign == 1 and m2.sign == 1:
        return CurveMap(1, add(curve, a, b))
    if m1.sign == 1:
        return CurveMap(-1, add(curve, b, a))
    if m2.sign == 1:
        return CurveMap(-1, add(curve, a, scalar_mul(curve, -1, b)))
    return CurveMap(1, add(curve, a, scalar_mul(curve, -1, b)))


class TestCompositionParity:
    @pytest.mark.parametrize("curve, bases", [
        (C1, [P23]), (C2, [point(0, 0), point(1, 0)])])
    def test_matches_four_branch_reference(self, curve, bases):
        samples = sample_points(curve, bases)
        maps = [make(curve, p) for p in samples
                for make in (translation, neg_translation)]
        signs = set()
        for m1, m2 in itertools.product(maps, repeat=2):
            assert compose_maps(curve, m1, m2) == \
                compose_maps_reference(curve, m1, m2), (m1, m2)
            signs.add((m1.sign, m2.sign))
        assert len(signs) == 4


def fraction_on_curve(curve, p):
    """Reference: the curve equation evaluated in Fraction arithmetic."""
    if p is None:
        return True
    x, y = p
    return y * y == x ** 3 + curve.A * x + curve.B


def random_fraction(rng, size):
    return Fraction(rng.randint(-size, size), rng.randint(1, size))


CQ = Curve(Fraction(-3, 4), Fraction(5, 8))  # non-integral coefficients
CR = Curve(0, -2)                             # (3, 5) has infinite order


class TestOnCurveParity:
    """The integer cross-multiplied test equals the Fraction formula."""

    def test_infinity(self):
        for curve in (C1, C2, CQ, CR):
            assert is_on_curve(curve, None) is True
            assert fraction_on_curve(curve, None) is True

    def test_seeded_points_on_and_off_curves(self):
        rng = random.Random(4101)
        outcomes = set()
        for _ in range(400):
            x, y = random_fraction(rng, 40), random_fraction(rng, 40)
            a = random_fraction(rng, 20)
            try:
                through = Curve(a, y * y - x ** 3 - a * x)  # passes (x, y)
            except ValueError:
                continue
            shift = random_fraction(rng, 40)
            for curve in (through, CQ, C1):
                for p in ((x, y), (x, -y), (x, y + shift), (x + shift, y)):
                    got = is_on_curve(curve, p)
                    assert got == fraction_on_curve(curve, p), (curve, p)
                    outcomes.add(got)
            assert is_on_curve(through, (x, y))
        assert outcomes == {True, False}

    def test_large_denominators_from_scalar_mul(self):
        rng = random.Random(4102)
        x, y = Fraction(-5, 7), Fraction(11, 3)
        through = Curve(Fraction(-3, 4), y * y - x ** 3 + Fraction(3, 4) * x)
        for curve, base in ((CR, point(3, 5)), (through, (x, y))):
            for k in range(1, 13):
                p = scalar_mul(curve, k, base)
                px, py = p
                eps = Fraction(rng.choice((1, -1)), py.denominator ** 2)
                for q in (p, (px, -py), (px, py + eps), (px + eps, py)):
                    assert is_on_curve(curve, q) == fraction_on_curve(curve, q)
                assert is_on_curve(curve, p)
            assert p[0].denominator > 10 ** 20

    def test_integer_coordinates(self):
        assert is_on_curve(C1, (2, 3)) == fraction_on_curve(C1, (2, 3))
        assert not is_on_curve(C1, (1, 1))


def fraction_add(curve, p, q):
    """Reference: the chord-tangent formula in Fraction arithmetic."""
    if p is None:
        return q
    if q is None:
        return p
    (x1, y1), (x2, y2) = p, q
    if x1 == x2 and y1 == -y2:
        return None
    if p == q:
        slope = (3 * x1 * x1 + curve.A) / (2 * y1)
    else:
        slope = (y2 - y1) / (x2 - x1)
    x3 = slope * slope - x1 - x2
    return (x3, slope * (x1 - x3) - y1)


def in_lowest_terms(p):
    return p is None or all(
        type(v) is Fraction and v.denominator > 0
        and gcd(v.numerator, v.denominator) == 1 for v in p)


class TestAddParity:
    """The integer chord-tangent addition equals the Fraction formula, and
    builds each coordinate in lowest terms with a positive denominator."""

    X, Y = Fraction(-5, 7), Fraction(11, 3)
    THROUGH = Curve(Fraction(-3, 4), Y * Y - X ** 3 + Fraction(3, 4) * X)

    def multiples(self, curve, base, count=12):
        out, p = [], None
        for _ in range(count):
            p = fraction_add(curve, p, base)
            out.append(p)
        return out

    def agree(self, curve, p, q):
        got = add(curve, p, q)
        assert got == fraction_add(curve, p, q), (p, q)
        assert in_lowest_terms(got)
        return got

    def test_infinity_and_inverse_pairs(self):
        for curve, points in ((C1, C1_POINTS), (C2, C2_POINTS)):
            for p in points:
                assert self.agree(curve, p, None) == p
                assert self.agree(curve, None, p) == p
                assert self.agree(curve, p, scalar_mul(curve, -1, p)) is None

    def test_doubling(self):
        # includes points of order 2, whose tangent is vertical
        for curve, base in ((C1, P23), (C2, point(0, 0)), (CR, point(3, 5)),
                            (self.THROUGH, (self.X, self.Y))):
            for p in self.multiples(curve, base, 8):
                self.agree(curve, p, p)

    def test_non_integral_coefficient(self):
        curve = self.THROUGH
        assert curve.A.denominator == 4
        points = self.multiples(curve, (self.X, self.Y), 6)
        for p, q in itertools.product(points, repeat=2):
            self.agree(curve, p, q)
            self.agree(curve, p, scalar_mul(curve, -1, q))

    def test_scalar_mul_with_large_denominators(self):
        for curve, base in ((CR, point(3, 5)),
                            (self.THROUGH, (self.X, self.Y))):
            points = self.multiples(curve, base)
            assert points[-1][0].denominator > 10 ** 20
            for k, p in enumerate(points, start=1):
                assert scalar_mul(curve, k, base) == p
                assert scalar_mul(curve, -k, base) == scalar_mul(curve, -1, p)
                assert in_lowest_terms(scalar_mul(curve, k, base))
            for p, q in itertools.combinations(points, 2):
                self.agree(curve, p, q)

    def test_same_numerator_other_denominator(self):
        # x = 1/2 and x = 1/3 share a numerator: a chord, not a tangent
        p, q = (Fraction(1, 2), Fraction(1)), (Fraction(1, 3), Fraction(2))
        a = (p[1] ** 2 - q[1] ** 2 - p[0] ** 3 + q[0] ** 3) / (p[0] - q[0])
        curve = Curve(a, p[1] ** 2 - p[0] ** 3 - a * p[0])
        points = (p, q, scalar_mul(curve, -1, p), scalar_mul(curve, -1, q))
        for r, s in itertools.product(points, repeat=2):
            self.agree(curve, r, s)
