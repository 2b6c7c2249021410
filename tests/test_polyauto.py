import gc
import itertools
import random
from fractions import Fraction

import pytest

from revsym.exactmath import IntPoly
from revsym.polyauto import (
    MAX_DEGREE,
    DegreeLimitExceeded,
    MultiPoly,
    OddnessViolated,
    PolyMap,
    build_example_family,
    check_reversor_identity,
    check_symmetry_identity,
    compose,
    family_checks,
    is_odd_function,
    trace_invariant,
    trace_map,
    trace_map_suite,
    univariate,
)
from test_records import replaced

X = MultiPoly.variable(0, 2)
Y = MultiPoly.variable(1, 2)
NEG = PolyMap((-X, -Y))
IDENT2 = PolyMap.identity(2)


def evaluate(poly, point):
    """Exact value of a polynomial at a rational point."""
    if len(point) != poly.nvars:
        raise ValueError("dimension mismatch")
    total = Fraction(0)
    for expo, coeff in poly.terms.items():
        val = Fraction(coeff)
        for x, e in zip(point, expo):
            if e:
                val *= Fraction(x) ** e
        total += val
    return total


def iterate(f, point, k):
    """k-fold exact evaluation of a map at a rational point: the pointwise
    oracle for symbolic composition."""
    current = tuple(Fraction(x) for x in point)
    for _ in range(k):
        current = tuple(evaluate(c, current) for c in f.components)
    return current


def random_map(rng, nvars, nterms=2, degree=3):
    comps = []
    for _ in range(nvars):
        terms = {}
        for _ in range(nterms):
            expo = tuple(rng.randint(0, degree) for _ in range(nvars))
            if sum(expo) > degree:
                expo = tuple(0 for _ in range(nvars))
            terms[expo] = rng.randint(-3, 3)
        comps.append(MultiPoly(nvars, terms) + MultiPoly.variable(0, nvars))
    return PolyMap(tuple(comps))


class TestCompose:
    def test_identity(self):
        fam = build_example_family(1)
        assert compose(fam.f, IDENT2) == fam.f
        assert compose(IDENT2, fam.f) == fam.f

    def test_negation_involution(self):
        assert compose(NEG, NEG) == IDENT2

    def test_quarter_turn_squares_to_negation(self):
        r = PolyMap((-Y, X))
        assert compose(r, r) == NEG

    def test_associativity_random(self):
        rng = random.Random(3)
        for nvars in (2, 3):
            for _ in range(10):
                f, g, h = (random_map(rng, nvars) for _ in range(3))
                lhs = compose(compose(f, g), h)
                rhs = compose(f, compose(g, h))
                assert lhs == rhs

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            compose(IDENT2, PolyMap.identity(3))

    def test_evaluation_compatible_with_composition(self):
        rng = random.Random(9)
        for _ in range(10):
            f = random_map(rng, 2)
            g = random_map(rng, 2)
            v = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                 Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            comp = compose(f, g)
            assert iterate(comp, v, 1) == iterate(f, iterate(g, v, 1), 1)

    def test_substitute_leaves_no_cyclic_garbage(self):
        # the power cache must be freed by reference counting alone
        fam = build_example_family(3)
        gc.collect()
        gc.disable()
        try:
            fam.f.components[0].substitute(fam.r)
            assert gc.collect() == 0
        finally:
            gc.enable()


def substitute_by_sums(poly, comps):
    """Reference substitution: the same degree check, then each term as a
    product of component powers, added to a running MultiPoly sum."""
    comp_deg = [c.total_degree() for c in comps]
    worst = max((sum(e * d for e, d in zip(expo, comp_deg))
                 for expo in poly.terms), default=0)
    if worst > MAX_DEGREE:
        raise DegreeLimitExceeded(
            f"composition degree {worst} exceeds limit {MAX_DEGREE}")
    nvars = comps[0].nvars
    total = MultiPoly.constant(0, nvars)
    for expo, coeff in poly.terms.items():
        term = MultiPoly.constant(coeff, nvars)
        for comp, e in zip(comps, expo):
            for _ in range(e):
                term = tuple_key_product(term, comp)
        total = total + term
    return total


def tuple_key_product(p, q):
    """Reference product on exponent tuples, added entry by entry."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            expo = tuple(a + b for a, b in zip(e1, e2))
            out[expo] = out.get(expo, 0) + c1 * c2
    return MultiPoly(p.nvars, {e: c for e, c in out.items() if c})


def random_poly(rng, nvars, nterms=4, degree=3):
    # coefficient 0 is drawn too, and dropped by the constructor
    return MultiPoly(nvars, {
        tuple(rng.randint(0, degree) for _ in range(nvars)):
        rng.randint(-3, 3) for _ in range(nterms)})


class TestPackedProductParity:
    """`__mul__` packs each exponent tuple into one int; the product must
    equal the tuple-key product, also where an exponent fills its field."""

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_seeded_products(self, nvars):
        rng = random.Random(f"packed/{nvars}")
        for _ in range(80):
            p = random_poly(rng, nvars, nterms=rng.randint(0, 6),
                            degree=rng.choice((1, 3, 7)))
            q = random_poly(rng, nvars, nterms=rng.randint(0, 6),
                            degree=rng.choice((0, 2, 8)))
            assert p * q == tuple_key_product(p, q)
            assert q * p == tuple_key_product(q, p)

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_zero_and_constant(self, nvars):
        zero, three = MultiPoly(nvars), MultiPoly.constant(3, nvars)
        p = random_poly(random.Random(nvars), nvars)
        for a, b in itertools.product((zero, three, p), repeat=2):
            assert a * b == tuple_key_product(a, b)
        assert (zero * p).terms == {}
        assert (three * three).terms == {(0,) * nvars: 9}

    @pytest.mark.parametrize("degrees", [(1, 0), (1, 1), (2, 1), (4, 3),
                                         (8, 7), (16, 15)])
    def test_exponents_that_fill_their_field(self, degrees):
        # total degree d1 + d2 = 2^k - 1 packs into k bits a variable; a
        # carry would move an exponent into the next variable
        d1, d2 = degrees
        x, y, z = (MultiPoly.variable(i, 3) for i in range(3))
        p = x ** d1 + y ** d1 + z ** d1 - x * z ** (d1 - 1)
        q = x ** d2 - y ** d2 + z ** d2 + y * z ** max(d2 - 1, 0)
        assert p * q == tuple_key_product(p, q)
        assert (x ** d1 * x ** d2).terms == {(d1 + d2, 0, 0): 1}

    def test_degrees_past_max_degree(self):
        # the product has no degree guard; only substitute checks it
        x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        p = x ** 150 * y ** 3 - x * y ** 120 + 7
        q = x ** 120 + y ** 90 * 2 - x ** 60 * y ** 60
        prod = p * q
        assert prod.total_degree() == 273 > MAX_DEGREE
        assert prod == tuple_key_product(p, q)
        assert p ** 2 == tuple_key_product(p, p)


class TestSubstituteParity:
    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_random_maps_match_running_sum(self, nvars):
        rng = random.Random(f"substitute/{nvars}")
        for _ in range(60):
            poly = random_poly(rng, nvars)
            comps = []
            for _ in range(nvars):
                roll = rng.random()
                if roll < 0.2:  # constant-only component, possibly zero
                    comps.append(MultiPoly.constant(rng.randint(-2, 2),
                                                    nvars))
                elif roll < 0.4 and comps:  # repeated: terms cancel
                    comps.append(rng.choice(comps))
                else:
                    comps.append(random_poly(rng, nvars, nterms=3,
                                             degree=2))
            out = poly.substitute(comps)
            assert out == substitute_by_sums(poly, comps)
            assert 0 not in out.terms.values()

    def test_terms_that_cancel_to_zero(self):
        p = X * 2 + Y * Y - 3
        for poly, comps, constant in [
                (X - Y, (p, p), 0),
                (X ** 2 - X * Y * 2 + Y ** 2, (p, p), 0),
                (X ** 2 - Y ** 2 + 5, (p, -p), 5)]:
            assert poly.substitute(comps) == substitute_by_sums(poly, comps) \
                == MultiPoly.constant(constant, 2)

    @pytest.mark.parametrize("comps", [
        (X, MultiPoly(1, {(1,): 1})),  # x + y into (x, t): not 2x
        (MultiPoly(1, {(1,): 1}), X),
        (X, MultiPoly.constant(3, 3))])
    def test_components_of_other_variable_counts(self, comps):
        with pytest.raises(ValueError, match="variable-count mismatch"):
            (X + Y).substitute(comps)

    @pytest.mark.parametrize("a, b", [(40, 40), (40, 41), (100, 0),
                                      (0, 67), (1, 67), (0, 66)])
    def test_degree_limit_at_the_same_point(self, a, b):
        # x^a y^b into (2xy, -y^3): composition degree 2a + 3b
        poly = MultiPoly(2, {(a, b): 1, (1, 0): -1})
        comps = (X * Y * 2, -(Y ** 3))
        try:
            expected = substitute_by_sums(poly, comps)
        except DegreeLimitExceeded as exc:
            with pytest.raises(DegreeLimitExceeded, match=str(exc)):
                poly.substitute(comps)
            assert 2 * a + 3 * b > MAX_DEGREE
        else:
            assert poly.substitute(comps) == expected
            assert 2 * a + 3 * b <= MAX_DEGREE


class TestExampleFamilies:
    def test_case1_reversor_and_symmetry(self):
        fam = build_example_family(1)
        assert check_reversor_identity(fam.f, fam.r)
        assert check_symmetry_identity(fam.f, fam.s)
        assert compose(fam.r, fam.r) == IDENT2
        assert compose(fam.s, fam.s) == IDENT2

    def test_case1_reversor_is_not_symmetry(self):
        fam = build_example_family(1)
        assert not check_symmetry_identity(fam.f, fam.r)
        assert not check_reversor_identity(fam.f, IDENT2)

    def test_equality_and_self_symmetry(self):
        fam = build_example_family(1)
        assert fam.f == fam.f
        assert IDENT2 != fam.s
        assert IDENT2 != PolyMap.identity(3)
        assert check_symmetry_identity(fam.f, fam.f)

    def test_case2_order_four_reversor(self):
        fam = build_example_family(2)
        assert check_reversor_identity(fam.f, fam.r)
        assert check_symmetry_identity(fam.f, fam.s)
        r2 = compose(fam.r, fam.r)
        assert r2 == fam.s
        assert compose(r2, r2) == IDENT2

    def test_case3_square_root_and_order_four_reversor(self):
        fam = build_example_family(3)
        assert fam.t is not None
        assert compose(fam.t, fam.t) == fam.f
        assert check_reversor_identity(fam.f, fam.r)
        rprime = compose(fam.t, fam.r)
        assert check_reversor_identity(fam.f, rprime)
        sq = compose(rprime, rprime)
        assert sq == fam.s
        assert sq != IDENT2
        assert compose(sq, sq) == IDENT2

    def test_case3_grading_product_of_reversors(self):
        fam = build_example_family(3)
        rprime = compose(fam.t, fam.r)
        assert compose(rprime, fam.r) == fam.t
        assert check_symmetry_identity(fam.f, fam.t)

    @pytest.mark.parametrize("case, names", [
        (1, ["reversor-identity", "symmetry-identity"]),
        (2, ["reversor-identity", "symmetry-identity"]),
        (3, ["reversor-identity", "symmetry-identity", "t-squares-to-f",
             "t-r-is-order-4-reversor"]),
    ])
    def test_family_checks_pass(self, case, names):
        assert family_checks(build_example_family(case)) == [
            (name, True) for name in names]

    def test_family_checks_report_a_wrong_family(self):
        fam = build_example_family(1)
        assert family_checks(replaced(fam, r=fam.s)) == [
            ("reversor-identity", False), ("symmetry-identity", True)]
        fam = build_example_family(3)
        assert dict(family_checks(replaced(fam, t=fam.r))) == {
            "reversor-identity": True, "symmetry-identity": True,
            "t-squares-to-f": False, "t-r-is-order-4-reversor": False}
        # s = id commutes with f, but (t o r)^2 = s then fails
        assert dict(family_checks(replaced(fam, s=IDENT2))) == {
            "reversor-identity": True, "symmetry-identity": True,
            "t-squares-to-f": True, "t-r-is-order-4-reversor": False}

    def test_custom_odd_parameters(self):
        p = univariate([0, 2, 0, 1])   # 2y + y^3
        q = univariate([0, -1, 0, 1])  # -x + x^3
        fam = build_example_family(1, p=p, q=q)
        assert check_reversor_identity(fam.f, fam.r)
        assert check_symmetry_identity(fam.f, fam.s)

    def test_oddness_enforced(self):
        with pytest.raises(OddnessViolated):
            build_example_family(1, p=univariate([0, 0, 1]))  # y^2
        with pytest.raises(OddnessViolated):
            build_example_family(3, p=univariate([1, 1]))     # 1 + y

    def test_case1_requires_distinct_polynomials(self):
        p = univariate([0, 0, 0, 1])
        with pytest.raises(ValueError):
            build_example_family(1, p=p, q=p)

    def test_case2_no_involutory_reversor_in_bounded_words(self):
        # pointwise refutation: no r o sigma with sigma = s^a f^k (|k| <= 3)
        # is an involution
        fam = build_example_family(2)
        x1, y1 = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
        f_inv = PolyMap((-x1 + (-y1 - x1 ** 3) ** 3, -y1 - x1 ** 3))
        assert compose(fam.f, f_inv) == IDENT2
        samples = [(Fraction(1), Fraction(2)), (Fraction(2), Fraction(-1)),
                   (Fraction(1, 2), Fraction(3))]

        def apply(m, pt):
            return iterate(m, pt, 1)

        for a in (0, 1):
            for k in range(-3, 4):
                def sigma_apply(pt, a=a, k=k):
                    cur = pt
                    step = fam.f if k >= 0 else f_inv
                    for _ in range(abs(k)):
                        cur = apply(step, cur)
                    if a:
                        cur = apply(fam.s, cur)
                    return cur

                def candidate(pt):
                    return apply(fam.r, sigma_apply(pt))

                involution = all(candidate(candidate(pt)) == pt
                                 for pt in samples)
                assert not involution, (a, k)


class TestTraceMap:
    def test_suite_passes(self):
        assert dict(trace_map_suite()) == {
            "invariant-preserved": True,
            "swap-is-reversor": True,
            "partner-is-reversor": True,
            "reversors-are-involutions": True,
        }

    def test_invariant_difference_is_zero_polynomial(self):
        f = trace_map()
        inv = trace_invariant()
        assert inv.substitute(f) == inv

    def test_fixed_point(self):
        assert iterate(trace_map(), (1, 1, 1), 5) == \
            (Fraction(1), Fraction(1), Fraction(1))

    def test_case2_origin_fixed(self):
        fam = build_example_family(2)
        assert iterate(fam.f, (0, 0), 2) == (Fraction(0), Fraction(0))

    def test_iterate_identity(self):
        v = (Fraction(3, 2), Fraction(-1, 3))
        assert iterate(IDENT2, v, 7) == v


class TestGuardrails:
    def test_degree_limit(self):
        cube = PolyMap((X ** 3, Y ** 3))
        out = compose(cube, compose(cube, cube))
        assert out.components[0] == X ** 27
        out = compose(cube, out)
        with pytest.raises(DegreeLimitExceeded, match="243 exceeds limit 200"):
            compose(cube, out)  # five cubes: degree 3^5 = 243

    def test_coefficients_are_integers(self):
        with pytest.raises(TypeError):
            MultiPoly(2, {(1, 0): Fraction(1, 2)})
        with pytest.raises(TypeError):
            MultiPoly(2, {(1, 0): Fraction(2)})
        with pytest.raises(TypeError):
            X + Fraction(1, 2)
        assert all(type(c) is int for c in build_example_family(3).f
                   .components[1].terms.values())

    @pytest.mark.parametrize("nvars", [2, 3, 4])
    def test_kernel_results_equal_checked_rebuilds(self, nvars):
        # the kernels skip the constructor's checks; each result must be
        # what those checks would have built, with no zero term
        rng = random.Random(f"trusted/{nvars}")
        for _ in range(10):
            comps = random_map(rng, nvars).components
            p, q = random_poly(rng, nvars), comps[0]
            for x in (p * q, p + q, -p, p - p, p.substitute(comps)):
                assert MultiPoly(x.nvars, x.terms) == x
                assert 0 not in x.terms.values()
                assert all(len(e) == nvars and all(type(k) is int for k in e)
                           for e in x.terms)

    def test_constructor_refuses_negative_exponents(self):
        # packed products add exponent fields, which needs them >= 0; a
        # negative exponent once printed as x and hid from the degree guard
        for nvars, expo in ((1, (-1,)), (2, (1, -1)), (3, (0, -5, 9))):
            with pytest.raises(ValueError, match="negative exponent"):
                MultiPoly(nvars, {expo: 3})
        assert MultiPoly(2, {(0, 0): 3}).total_degree() == 0

    def test_constructor_refuses_float_coefficient(self):
        with pytest.raises(TypeError):
            MultiPoly(1, {(0,): 1.0})

    def test_cancellations_leave_no_zero_terms(self):
        # sums, differences and products whose terms cancel exactly
        for poly, expected in [
                ((X + Y) - (X + Y), MultiPoly(2)),
                ((X + Y * 2) + (Y * -2 + 3), X + 3),
                ((X - Y) * (X + Y), X ** 2 - Y ** 2),
                ((X + Y) * MultiPoly(2), MultiPoly(2))]:
            assert poly == expected
            assert 0 not in poly.terms.values()

    def test_odd_check(self):
        assert is_odd_function(univariate([0, 1, 0, 5]))
        assert not is_odd_function(univariate([1, 1]))
        with pytest.raises(ValueError):
            is_odd_function(MultiPoly.variable(0, 2))


class TestTextRendering:
    def test_poly_text(self):
        p = X ** 2 - Y * 3 + MultiPoly.constant(1, 2)
        assert p.to_text() == "x^2 - 3*y + 1"

    def test_map_text(self):
        fam = build_example_family(1)
        assert fam.r.to_text() == "(-y^3 - x, y)"

    def test_univariate_text_matches_intpoly(self):
        # zero, constants, unit coefficients, gaps and negative leads
        cases = [[], [0], [7], [-1], [0, 1], [0, -1], [1, 0, -1],
                 [0, 0, 0, -2], [-4, 0, 1, 0, 0, -1]]
        rng = random.Random(31)
        cases += [[rng.choice((-3, -1, 0, 0, 1, 2))
                   for _ in range(rng.randint(1, 7))] for _ in range(300)]
        for coeffs in cases:
            assert IntPoly(coeffs).to_text() == univariate(coeffs).to_text()

    def test_pinned_text(self):
        assert IntPoly([1, -3, 0, 1]).to_text() == "x^3 - 3*x + 1"
        assert IntPoly([0, 0, -1]).to_text() == "-x^2"
        assert IntPoly([]).to_text() == "0"
        assert IntPoly([-1]).to_text() == "-1"
        p = MultiPoly(3, {(2, 1, 0): -2, (0, 0, 1): 1, (0, 1, 1): -1,
                          (0, 0, 0): -7})
        assert p.to_text(("a", "b", "c")) == "-2*a^2*b - b*c + c - 7"
        assert MultiPoly(2).to_text() == "0"
