import itertools
import random
from math import isqrt

import pytest

from revsym.exactmath import (
    IntMatrix,
    IntPoly,
    RECIPROCAL_DIRECT,
    RECIPROCAL_NONE,
    RECIPROCAL_UP_TO_SIGN,
    char_poly,
    finite_order_test,
    mat_det,
    mat_inverse_unimodular,
    mat_mul,
    mat_pow,
    reciprocity_class,
)
from revsym.matgroup import (
    CASE_DINF,
    CASE_ONE,
    CASE_THREE,
    CASE_TWO,
    GroupContext,
    ReversibilityReport,
    STATUS_CLASSIFIED,
    STATUS_IRREVERSIBLE,
    STATUS_TRIVIAL,
    SymmetryDescriptor,
    analyze,
    canonical_sign,
    discrete_log_in_symmetries,
    find_conjugator,
    induced_automorphism,
    intertwiner_lattice,
    is_reversor,
    is_symmetry,
    pgl_reciprocity_ok,
    search_reversors,
    symmetry_generator_2x2,
)

GL2 = GroupContext(2)
PGL2 = GroupContext(2, projective=True)
GL4 = GroupContext(4)
PGL4 = GroupContext(4, projective=True)

FIB = IntMatrix([[0, 1], [1, 1]])
R2 = IntMatrix([[1, 0], [1, -1]])
R4 = IntMatrix([[0, -1], [1, 0]])
CASE1_M = IntMatrix([[1, 2], [1, 3]])
CASE2_M = IntMatrix([[5, 7], [7, 10]])
CASE3_M = IntMatrix([[1, 1], [1, 2]])

M4 = IntMatrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 2, 2, 2]])
RR = IntMatrix([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
N4 = IntMatrix([[1, 0, -3, 1], [-1, 3, 2, -1], [1, -3, 1, 0], [0, 1, -3, 1]])
N4P = IntMatrix([[-1, 3, 2, -1], [1, -3, 1, 0], [0, 1, -3, 1], [-1, 2, 3, -1]])


def contains_up_to_sign(reversors, mat):
    return any(x == mat or x == -mat for x, _ in reversors)


class TestPredicates:
    def test_self_symmetry(self):
        assert is_symmetry(CASE1_M, CASE1_M, GL2)

    def test_neg_identity_is_symmetry(self):
        assert is_symmetry(-IntMatrix.identity(2), CASE1_M, GL2)

    def test_commuting_quartics(self):
        assert is_symmetry(N4, M4, PGL4)
        assert is_symmetry(N4, M4, GL4)

    def test_reference_reversors(self):
        assert is_reversor(R2, FIB, PGL2)
        assert is_reversor(R4, FIB, PGL2)
        assert is_reversor(R4, CASE2_M, GL2)
        assert is_reversor(R2, CASE1_M, GL2)
        assert is_reversor(R2, CASE3_M, GL2)
        assert is_reversor(R4, CASE3_M, GL2)

    def test_fibonacci_not_reversible_in_gl(self):
        assert not is_reversor(R2, FIB, GL2)

    def test_identity_not_a_reversor(self):
        assert not is_reversor(IntMatrix.identity(2), CASE1_M, GL2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_symmetry(FIB, M4, GL4)


class TestIntertwinerLattice:
    def test_identity_full_lattice(self):
        basis = intertwiner_lattice(IntMatrix.identity(2), IntMatrix.identity(2))
        assert len(basis) == 4

    def test_commutant_is_span_of_identity_and_m(self):
        basis = intertwiner_lattice(CASE1_M, CASE1_M)
        assert len(basis) == 2
        # brute force: every commuting X with entries in [-5,5] is a + b*M
        brute = []
        for e in itertools.product(range(-5, 6), repeat=4):
            x = IntMatrix([[e[0], e[1]], [e[2], e[3]]])
            if mat_mul(x, CASE1_M) == mat_mul(CASE1_M, x):
                brute.append(x)
        for x in brute:
            b = x.rows[1][0]
            a = x.rows[0][0] - b
            assert IntMatrix.identity(2).scaled(a) + CASE1_M.scaled(b) == x
        # and the basis itself commutes with M
        for mat in basis:
            assert mat_mul(mat, CASE1_M) == mat_mul(CASE1_M, mat)

    def test_reversor_lattice_contains_reference_reversor(self):
        minv = mat_inverse_unimodular(CASE1_M)
        basis = intertwiner_lattice(CASE1_M, minv)
        assert len(basis) == 2
        for mat in basis:
            assert mat_mul(mat, CASE1_M) == mat_mul(minv, mat)
        found = search_reversors(CASE1_M, GL2, 3)
        assert contains_up_to_sign(found, R2)

    def test_deterministic_basis(self):
        b1 = intertwiner_lattice(CASE3_M, CASE3_M)
        b2 = intertwiner_lattice(CASE3_M, CASE3_M)
        assert b1 == b2


class TestSearchReversors:
    def test_case1_contains_involution(self):
        found = search_reversors(CASE1_M, GL2, 3)
        assert contains_up_to_sign(found, R2)
        assert set(order for _, order in found) == {2}

    def test_case2_only_order_four(self):
        found = search_reversors(CASE2_M, GL2, 3)
        assert contains_up_to_sign(found, R4)
        assert set(order for _, order in found) == {4}

    def test_case3_both_orders(self):
        found = search_reversors(CASE3_M, GL2, 3)
        assert contains_up_to_sign(found, R2)
        assert contains_up_to_sign(found, R4)
        assert set(order for _, order in found) == {2, 4}

    def test_matches_entrywise_brute_force(self):
        # oracle: raw entry enumeration in [-5,5]
        for m in (CASE1_M, CASE2_M, CASE3_M):
            minv = mat_inverse_unimodular(m)
            brute = set()
            for e in itertools.product(range(-5, 6), repeat=4):
                x = IntMatrix([[e[0], e[1]], [e[2], e[3]]])
                if mat_det(x) in (1, -1) and mat_mul(x, m) == mat_mul(minv, x):
                    brute.add(x)
            found = {x for x, _ in search_reversors(m, GL2, 12)}
            assert brute <= found

    def test_empty_lattice_gives_no_reversors(self):
        # X FIB = FIB^-1 X has only X = 0 over Z
        assert search_reversors(FIB, GL2, 5) == []

    def test_pgl_finds_sign_twisted_reversors(self):
        found = search_reversors(FIB, PGL2, 3)
        assert found
        assert contains_up_to_sign(found, R2)
        assert contains_up_to_sign(found, R4)
        assert set(order for _, order in found) == {2}

    def test_results_are_genuine_reversors(self):
        for m, ctx in ((CASE1_M, GL2), (CASE3_M, GL2), (FIB, PGL2)):
            for x, order in search_reversors(m, ctx, 4):
                assert is_reversor(x, m, ctx)
                assert finite_order_test(x, ctx.projective) == order


class TestSymmetryGenerator:
    def test_fibonacci_generates_itself(self):
        desc = symmetry_generator_2x2(FIB, PGL2)
        assert desc.generator == FIB
        assert desc.f_sign == 1
        assert desc.f_exponent == 1
        assert desc.finite_part_order == 1

    def test_case3_has_square_root(self):
        desc = symmetry_generator_2x2(CASE3_M, GL2)
        assert desc.generator == FIB
        assert desc.f_sign == 1
        assert desc.f_exponent == 2
        assert mat_pow(desc.generator, 2) == CASE3_M
        assert desc.finite_part_order == 2

    def test_case1_regression(self):
        desc = symmetry_generator_2x2(CASE1_M, GL2)
        # frozen regression: the fundamental solution is (a0, b0) = (0, 1)
        assert desc.generator == CASE1_M
        assert (desc.f_sign, desc.f_exponent) == (1, 1)

    def test_case2_regression(self):
        desc = symmetry_generator_2x2(CASE2_M, GL2)
        assert desc.generator == CASE2_M
        assert (desc.f_sign, desc.f_exponent) == (1, 1)

    def test_negative_power_expression(self):
        m = -mat_pow(FIB, 2)
        desc = symmetry_generator_2x2(m, GL2)
        assert desc.f_sign == -1
        assert desc.f_exponent == 2
        assert mat_pow(desc.generator, 2).scaled(-1) == m

    def test_finite_order_rejected(self):
        with pytest.raises(ValueError, match="matrix must have infinite order"):
            symmetry_generator_2x2(R4, GL2)

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            symmetry_generator_2x2(IntMatrix([[1, 1], [0, 1]]), GL2)


class TestDiscreteLog:
    def test_trivial_values(self):
        desc = symmetry_generator_2x2(CASE3_M, GL2)
        assert discrete_log_in_symmetries(IntMatrix.identity(2), desc) == (1, 0)
        assert discrete_log_in_symmetries(-desc.generator, desc) == (-1, 1)

    def test_square_of_generator(self):
        desc = symmetry_generator_2x2(CASE3_M, GL2)
        assert discrete_log_in_symmetries(CASE3_M, desc) == (1, 2)

    def test_out_of_span(self):
        desc = symmetry_generator_2x2(CASE3_M, GL2)
        with pytest.raises(ValueError, match=r"element is not \+-g\^k for any k"):
            discrete_log_in_symmetries(R4, desc)

    def test_rejects_generator_without_complete_search(self):
        # a shear has |trace g^k| = 2 for every k, so no cap from the trace
        # of s could be complete
        shear = IntMatrix([[1, 1], [0, 1]])
        desc = SymmetryDescriptor(2, shear, 1, 1)
        with pytest.raises(ValueError):
            discrete_log_in_symmetries(mat_pow(shear, 10), desc)

    def test_exact_on_all_small_generators(self):
        # the log is found with no bound for every +-g^k, |k| <= 12, of the
        # commutant generator g of each small hyperbolic matrix
        descriptors = {}
        for entries in itertools.product(range(-3, 4), repeat=4):
            m = IntMatrix([entries[:2], entries[2:]])
            disc = m.trace() ** 2 - 4 * mat_det(m)
            if (mat_det(m) not in (1, -1) or finite_order_test(m) is not None
                    or (disc >= 0 and isqrt(disc) ** 2 == disc)):
                continue
            for ctx in (GL2, PGL2):
                desc = symmetry_generator_2x2(m, ctx)
                descriptors[desc.generator, ctx] = desc
        assert len(descriptors) > 50
        for (g, _), desc in descriptors.items():
            ginv = mat_inverse_unimodular(g)
            pos = neg = IntMatrix.identity(2)
            for k in range(13):
                for s, kk in ((pos, k), (neg, -k)):
                    assert discrete_log_in_symmetries(s, desc) == (1, kk)
                    assert discrete_log_in_symmetries(-s, desc) == (-1, kk)
                pos, neg = mat_mul(pos, g), mat_mul(neg, ginv)


class TestInducedAutomorphism:
    def test_reversor_inverts_f(self):
        sigma = induced_automorphism(R2, CASE1_M, GL2)
        assert sigma == mat_inverse_unimodular(CASE1_M)

    def test_case3_signature(self):
        g = FIB
        sigma_g = induced_automorphism(R2, g, GL2)
        assert mat_mul(sigma_g, g) == -IntMatrix.identity(2)

    def test_case2_generator_inverted(self):
        desc = symmetry_generator_2x2(CASE2_M, GL2)
        sigma_g = induced_automorphism(R4, desc.generator, GL2)
        assert sigma_g == mat_inverse_unimodular(desc.generator)


def power_of_two_reversor(r: IntMatrix, f: IntMatrix,
                          ctx: GroupContext) -> IntMatrix:
    """Reduce a finite-order reversor to one of 2-power order.

    If r has order 2^l * (2m+1), then r^(2m+1) is again a reversor (odd
    powers of a reversor reverse) and has order exactly 2^l.
    """
    if not is_reversor(r, f, ctx):
        raise ValueError("element does not reverse f")
    order = finite_order_test(r, ctx.projective)
    if order is None:
        raise ValueError("reversor has infinite order")
    odd = order
    while odd % 2 == 0:
        odd //= 2
    reduced = mat_pow(r, odd)
    return canonical_sign(reduced) if ctx.projective else reduced


class TestPowerOfTwoReversor:
    def test_involution_fixed(self):
        assert power_of_two_reversor(R2, CASE1_M, GL2) == R2

    def test_order_six_reduces_to_involution(self):
        # block matrix: reverses the first block, order-3 rotation on the second
        f = IntMatrix([[1, 2, 0, 0], [1, 3, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        r = IntMatrix([[1, 0, 0, 0], [1, -1, 0, 0], [0, 0, 0, -1], [0, 0, 1, -1]])
        assert finite_order_test(r) == 6
        reduced = power_of_two_reversor(r, f, GL4)
        assert finite_order_test(reduced) == 2
        assert is_reversor(reduced, f, GL4)

    def test_order_twelve_reduces_to_order_four(self):
        f = IntMatrix([[5, 7, 0, 0], [7, 10, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        r = IntMatrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, -1]])
        assert finite_order_test(r) == 12
        reduced = power_of_two_reversor(r, f, GL4)
        assert finite_order_test(reduced) == 4
        assert is_reversor(reduced, f, GL4)
        assert reduced == mat_pow(r, 3)

    def test_rejects_non_reversor(self):
        with pytest.raises(ValueError, match="element does not reverse f"):
            power_of_two_reversor(IntMatrix.identity(2), CASE1_M, GL2)

    def test_rejects_infinite_order(self):
        rprime = mat_mul(RR, N4P)
        assert is_reversor(rprime, M4, PGL4)
        with pytest.raises(ValueError, match="reversor has infinite order"):
            power_of_two_reversor(rprime, M4, PGL4)


class TestClassification:
    def test_three_reference_cases(self):
        for m, case in ((CASE1_M, CASE_ONE), (CASE2_M, CASE_TWO),
                        (CASE3_M, CASE_THREE)):
            report = analyze(m, GL2)
            assert report.status == STATUS_CLASSIFIED
            assert report.classification_case == case

    def test_agrees_with_exhaustive_order_spectra(self):
        expected = {CASE_ONE: {2}, CASE_TWO: {4}, CASE_THREE: {2, 4}}
        for m in (CASE1_M, CASE2_M, CASE3_M):
            case = analyze(m, GL2).classification_case
            spectrum = {order for _, order in search_reversors(m, GL2, 5)}
            assert spectrum == expected[case]

    def test_fibonacci_irreversible_in_gl(self):
        report = analyze(FIB, GL2)
        assert report.status == STATUS_IRREVERSIBLE
        assert report.classification_case is None


def check_coset(f, desc, r, ctx, bound):
    """The reversors found within `bound` are exactly the coset r * {+-g^k}:
    each one is r times +-g^k (the discrete log raises ValueError otherwise),
    and each r * (+-g^k) with |k| <= bound reverses f."""
    assert is_reversor(r, f, ctx)
    rinv = mat_inverse_unimodular(r)
    for x, _ in search_reversors(f, ctx, bound):
        discrete_log_in_symmetries(mat_mul(rinv, x), desc)
    for k in range(-bound, bound + 1):
        power = mat_pow(desc.generator, k)
        for eps in (1, -1):
            assert is_reversor(mat_mul(r, power.scaled(eps)), f, ctx)


class TestCosetDecomposition:
    def test_fibonacci_coset(self):
        desc = symmetry_generator_2x2(FIB, PGL2)
        check_coset(FIB, desc, R2, PGL2, 4)

    def test_case3_coset_and_alternating_orders(self):
        desc = symmetry_generator_2x2(CASE3_M, GL2)
        check_coset(CASE3_M, desc, R2, GL2, 3)
        g = desc.generator
        # orders of R2 * g^k alternate with the parity of k, per the identity
        # (r s)^2 = sigma(s) s for involutory r
        for k in range(-3, 4):
            candidate = mat_mul(R2, mat_pow(g, k))
            order = finite_order_test(candidate)
            assert order == (2 if k % 2 == 0 else 4)
            sq = mat_mul(candidate, candidate)
            sigma_s = induced_automorphism(R2, mat_pow(g, k), GL2)
            assert sq == mat_mul(sigma_s, mat_pow(g, k))


class TestConjugacy:
    def test_self_conjugate(self):
        w = find_conjugator(CASE1_M, CASE1_M, GL2, 2)
        assert w is not None
        assert mat_mul(w, CASE1_M) == mat_mul(CASE1_M, w)

    def test_distinct_involutions_not_conjugate(self):
        assert find_conjugator(R2, R4, PGL2, 10) is None

    def test_constructed_conjugation_found(self):
        s = IntMatrix([[1, 1], [1, 2]])
        m2 = mat_pow(CASE1_M, 2)
        target = mat_mul(mat_mul(s, m2), mat_inverse_unimodular(s))
        w = find_conjugator(m2, target, GL2, 10)
        assert w is not None
        assert mat_mul(mat_mul(w, m2), mat_inverse_unimodular(w)) == target


class TestAnalyze:
    def test_fibonacci_gl_irreversible(self):
        report = analyze(FIB, GL2)
        assert report.status == STATUS_IRREVERSIBLE
        assert report.reciprocity == RECIPROCAL_NONE
        assert report.order is None

    def test_fibonacci_pgl_dinf(self):
        report = analyze(FIB, PGL2)
        assert report.status == STATUS_CLASSIFIED
        assert report.classification_case == CASE_DINF
        assert report.reversors
        assert all(order == 2 for _, order in report.reversors)

    def test_identity_trivially_reversible(self):
        report = analyze(IntMatrix.identity(2), GL2)
        assert report.status == STATUS_TRIVIAL
        assert report.order == 1

    def test_square_of_fibonacci_case3(self):
        report = analyze(CASE3_M, GL2)
        assert report.status == STATUS_CLASSIFIED
        assert report.classification_case == CASE_THREE

    def test_case_reports(self):
        assert analyze(CASE1_M, GL2).classification_case == CASE_ONE
        assert analyze(CASE2_M, GL2).classification_case == CASE_TWO

    def test_obstruction_reasons(self):
        # FIB in GL: both reasons, since its reversor lattice is zero
        assert analyze(FIB, GL2).irreversibility_reason == (
            "characteristic polynomial is not self-reciprocal (neither "
            "directly nor up to sign); intertwiner lattice is trivial over Z")
        # diag(FIB, 1): the reversor lattice holds the projection onto the
        # last coordinate, so only the reciprocity obstruction is named
        m = IntMatrix([[0, 1, 0], [1, 1, 0], [0, 0, 1]])
        assert analyze(m, GroupContext(3)).irreversibility_reason == (
            "characteristic polynomial is not self-reciprocal (neither "
            "directly nor up to sign)")
        assert analyze(m, GroupContext(3, projective=True)
                       ).irreversibility_reason == (
            "characteristic polynomial is not self-reciprocal")


class TestQuarticSuite:
    def test_characteristic_polynomials(self):
        assert char_poly(M4) == IntPoly([1, -2, -2, -2, 1])
        assert char_poly(N4) == IntPoly([1, -14, 22, -6, 1])
        assert reciprocity_class(char_poly(M4)) == RECIPROCAL_DIRECT
        assert reciprocity_class(char_poly(N4)) == RECIPROCAL_NONE
        assert not pgl_reciprocity_ok(char_poly(N4))

    def test_np_is_product(self):
        assert mat_mul(M4, N4) == N4P

    def test_involutory_reversor(self):
        assert mat_mul(RR, RR) == IntMatrix.identity(4)
        assert is_reversor(RR, M4, PGL4)
        assert is_reversor(RR, M4, GL4)

    def test_symmetries(self):
        assert is_symmetry(N4, M4, PGL4)
        assert is_symmetry(N4P, M4, PGL4)

    def test_commuting_pair_and_infinite_reversor(self):
        assert mat_mul(RR, N4P) == mat_mul(N4P, RR)
        rprime = mat_mul(RR, N4P)
        assert is_reversor(rprime, M4, PGL4)
        assert finite_order_test(rprime, projective=True) is None


def pgl_reciprocity_reference(p: IntPoly) -> bool:
    """The PGL condition with p and (-1)^d p(-x) normalised by p(0)."""
    rev = p.reversed_coeffs()
    c0 = p.coeffs[0]
    direct = p if c0 == 1 else -p
    variant = p.sign_alternated()
    variant = variant if c0 == 1 else -variant
    return rev == direct or rev == variant


class TestPglReciprocity:
    def test_fibonacci_sign_variant(self):
        p = char_poly(FIB)
        assert reciprocity_class(p) == RECIPROCAL_NONE
        assert pgl_reciprocity_ok(p)

    def test_direct_implies_ok(self):
        assert pgl_reciprocity_ok(char_poly(CASE1_M))

    def test_matches_normalised_comparison(self):
        # every monic polynomial of degree 1-6 with inner coefficients in
        # [-3, 3] and constant term +-1
        answers = set()
        count = 0
        for d in range(1, 7):
            for inner in itertools.product(range(-3, 4), repeat=d - 1):
                for c0 in (1, -1):
                    p = IntPoly((c0,) + inner + (1,))
                    got = pgl_reciprocity_ok(p)
                    assert got == pgl_reciprocity_reference(p), p
                    answers.add((got, reciprocity_class(p)))
                    count += 1
        assert count == 39216
        assert answers == {(True, RECIPROCAL_DIRECT),
                           (True, RECIPROCAL_UP_TO_SIGN),
                           (True, RECIPROCAL_NONE), (False, RECIPROCAL_NONE)}


class TestGroupProperties:
    """Randomized structural invariants with a fixed seed."""

    def _reversor_symmetry_pool(self, m, ctx, desc):
        reversors = [x for x, _ in search_reversors(m, ctx, 3)]
        symmetries = [mat_pow(desc.generator, k).scaled(eps)
                      for k in range(-4, 5) for eps in (1, -1)]
        return reversors, symmetries

    def test_grading_homomorphism(self):
        rng = random.Random(2024)
        for m, ctx in ((CASE1_M, GL2), (CASE2_M, GL2), (CASE3_M, GL2),
                       (FIB, PGL2)):
            desc = symmetry_generator_2x2(m, ctx)
            reversors, symmetries = self._reversor_symmetry_pool(m, ctx, desc)
            for _ in range(100):
                r1, r2 = rng.choice(reversors), rng.choice(reversors)
                assert is_symmetry(mat_mul(r1, r2), m, ctx)
                s = rng.choice(symmetries)
                assert is_reversor(mat_mul(r1, s), m, ctx)
                assert is_reversor(mat_mul(s, r1), m, ctx)

    def test_no_odd_order_reversor(self):
        for m, ctx in ((CASE1_M, GL2), (CASE2_M, GL2), (CASE3_M, GL2),
                       (FIB, PGL2)):
            for _, order in search_reversors(m, ctx, 5):
                assert order is None or order % 2 == 0

    def test_order_divides_four_in_gl2(self):
        for m in (CASE1_M, CASE2_M, CASE3_M):
            for _, order in search_reversors(m, GL2, 5):
                if order is not None:
                    assert 4 % order == 0

    def test_reversor_square_identity(self):
        rng = random.Random(77)
        for m in (CASE1_M, CASE3_M):
            desc = symmetry_generator_2x2(m, GL2)
            g = desc.generator
            for _ in range(100):
                j = rng.randint(-5, 5)
                k = rng.randint(1, 5)
                eps = rng.choice((1, -1))
                s = mat_pow(g, j).scaled(eps)
                lhs = mat_pow(mat_mul(R2, s), 2 * k)
                rhs = mat_pow(mat_mul(induced_automorphism(R2, s, GL2), s), k)
                assert lhs == rhs

    def test_reversibility_implies_reciprocity(self):
        for m, ctx in ((CASE1_M, GL2), (CASE2_M, GL2), (CASE3_M, GL2)):
            if search_reversors(m, ctx, 5):
                assert reciprocity_class(char_poly(m)) != RECIPROCAL_NONE
        assert search_reversors(FIB, PGL2, 5)
        assert pgl_reciprocity_ok(char_poly(FIB))


class TestCanonicalSign:
    def test_flip(self):
        assert canonical_sign(IntMatrix([[0, -1], [1, 0]])) == \
            IntMatrix([[0, 1], [-1, 0]])
        assert canonical_sign(IntMatrix([[0, 1], [-1, 0]])) == \
            IntMatrix([[0, 1], [-1, 0]])


class TestAnalyzeEdgePaths:
    def test_quartic_reversible_but_unclassified(self):
        report = analyze(M4, PGL4, reversor_bound=2)
        assert report.status == STATUS_CLASSIFIED
        assert report.classification_case == "reversible-unclassified"
        orders = {order for _, order in report.reversors}
        assert 2 in orders and None in orders

    def test_quartic_symmetry_generator_irreversible(self):
        report = analyze(N4, PGL4, reversor_bound=3)
        assert report.status == STATUS_IRREVERSIBLE
        assert "lattice" in report.irreversibility_reason

    def test_obstructed_input_is_decided_past_the_enumeration_cap(self):
        # diag(FIB, I3): the I3 block gives the reversor lattice rank 9, and
        # 21^9 points exceed the cap, but no search is needed
        m = IntMatrix([[0, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                       [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
        report = analyze(m, GroupContext(5))
        assert report.status == STATUS_IRREVERSIBLE
        assert report.reversors == []

    def test_finite_order_above_two_unclassified(self):
        # quarter turn has order 4 in GL(2,Z) and is reversed by a reflection
        report = analyze(R4, GL2, reversor_bound=2)
        assert report.order == 4
        assert report.status == STATUS_CLASSIFIED
        assert report.classification_case == "reversible-unclassified"
        assert contains_up_to_sign(report.reversors,
                                   IntMatrix([[1, 0], [0, -1]]))

    def test_zero_bound_2x2_is_classified_with_witness(self):
        report = analyze(CASE1_M, GL2, reversor_bound=0)
        assert report.status == STATUS_CLASSIFIED
        assert report.classification_case == CASE_ONE
        [(witness, order)] = report.reversors
        assert is_reversor(witness, CASE1_M, GL2)
        assert order == finite_order_test(witness)

    def test_zero_bound_nxn_is_inconclusive(self):
        from revsym.matgroup import STATUS_INCONCLUSIVE
        report = analyze(M4, GL4, reversor_bound=0)
        assert report.status == STATUS_INCONCLUSIVE
        assert not report.reversors

    def test_sigma_guard_fires_on_bogus_descriptor(self):
        from revsym.matgroup import _classify_from
        bogus = SymmetryDescriptor(finite_part_order=2,
                                   generator=IntMatrix([[1, 1], [0, 1]]),
                                   f_sign=1, f_exponent=1)
        with pytest.raises(AssertionError):
            _classify_from(bogus, (R2, finite_order_test(R2)), GL2)


class TestRecords:
    """GroupContext and SymmetryDescriptor are frozen values, and
    ReversibilityReport a mutable record; all three compare field by field
    and print as ``Name(field=value, ...)``."""

    def descriptor(self, **changes):
        fields = dict(finite_part_order=2, generator=FIB, f_sign=1,
                      f_exponent=2)
        return SymmetryDescriptor(**{**fields, **changes})

    def report(self, **changes):
        fields = dict(matrix=CASE3_M, context=GL2, order=None,
                      characteristic_polynomial=char_poly(CASE3_M),
                      reciprocity=RECIPROCAL_DIRECT,
                      sign_adjusted_reciprocity=True,
                      status=STATUS_CLASSIFIED, reversor_bound=10)
        return ReversibilityReport(**{**fields, **changes})

    def test_equality_by_field(self):
        assert GroupContext(2) == GroupContext(2, False) == GL2
        assert GroupContext(2) != PGL2
        assert GroupContext(3) != GL2
        assert self.descriptor() == self.descriptor()
        for change in (dict(finite_part_order=1), dict(generator=R2),
                       dict(f_sign=-1), dict(f_exponent=1)):
            assert self.descriptor(**change) != self.descriptor()
        assert self.report() == self.report()
        for change in (dict(context=PGL2), dict(order=4),
                       dict(reversor_bound=9), dict(reversors=[(R2, 2)]),
                       dict(symmetry_descriptor=self.descriptor()),
                       dict(irreversibility_reason="")):
            assert self.report(**change) != self.report()

    def test_not_equal_to_tuples(self):
        assert GL2 != (2, False)
        assert PGL2 != (2, True)
        assert self.descriptor() != (2, FIB, 1, 2)
        assert GL2 != SymmetryDescriptor(2, FIB, 1, 2)

    def test_equal_frozen_values_hash_equal(self):
        assert hash(GroupContext(4, projective=True)) == hash(PGL4)
        assert hash(self.descriptor()) == hash(self.descriptor())
        assert len({GL2, GroupContext(2), PGL2, GroupContext(2, True)}) == 2

    def test_report_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(self.report())

    @pytest.mark.parametrize("field", ["n", "projective", "other"])
    def test_context_is_frozen(self, field):
        ctx = GroupContext(2)
        with pytest.raises(AttributeError):
            setattr(ctx, field, 3)
        assert ctx == GL2

    @pytest.mark.parametrize("field", ["finite_part_order", "generator",
                                       "f_sign", "f_exponent"])
    def test_descriptor_is_frozen(self, field):
        desc = self.descriptor()
        with pytest.raises(AttributeError):
            setattr(desc, field, 0)
        assert desc == self.descriptor()

    def test_context_dimension_check(self):
        for n in (1, 0, -2):
            with pytest.raises(ValueError,
                               match="context dimension must be >= 2"):
                GroupContext(n)

    def test_keyword_construction(self):
        assert GroupContext(n=3, projective=True) == GroupContext(3, True)
        assert SymmetryDescriptor(2, FIB, 1, 2) == self.descriptor()
        assert self.report() == ReversibilityReport(
            CASE3_M, GL2, None, char_poly(CASE3_M), RECIPROCAL_DIRECT, True,
            STATUS_CLASSIFIED, 10)

    def test_report_defaults(self):
        a, b = self.report(), self.report()
        assert (a.classification_case, a.symmetry_descriptor, a.reversors,
                a.irreversibility_reason) == (None, None, [], None)
        assert a.reversors is not b.reversors
        a.reversors.append((R2, 2))
        assert b.reversors == []

    def test_report_is_mutable(self):
        report = self.report()
        report.status = STATUS_IRREVERSIBLE
        assert report.status == STATUS_IRREVERSIBLE
        assert report != self.report()

    def test_reprs(self):
        assert repr(GL2) == "GroupContext(n=2, projective=False)"
        assert repr(PGL4) == "GroupContext(n=4, projective=True)"
        assert repr(self.descriptor()) == (
            "SymmetryDescriptor(finite_part_order=2, "
            "generator=IntMatrix([[0, 1], [1, 1]]), f_sign=1, f_exponent=2)")
        assert repr(analyze(IntMatrix([[0, 1], [1, 0]]), PGL2)) == (
            "ReversibilityReport(matrix=IntMatrix([[0, 1], [1, 0]]), "
            "context=GroupContext(n=2, projective=True), order=2, "
            "characteristic_polynomial=IntPoly([-1, 0, 1]), "
            "reciprocity='up-to-sign', sign_adjusted_reciprocity=True, "
            "status='trivially-reversible', reversor_bound=10, "
            "classification_case=None, symmetry_descriptor=None, "
            "reversors=[], irreversibility_reason=None)")

    @pytest.mark.parametrize("m, ctx", [(CASE3_M, GL2), (FIB, PGL2),
                                        (FIB, GL2), (M4, PGL4)])
    def test_analyze_reports_compare_by_value(self, m, ctx):
        first = analyze(m, ctx)
        second = analyze(IntMatrix(m.rows), GroupContext(ctx.n,
                                                         ctx.projective))
        assert first is not second
        assert first == second
        second.reversor_bound += 1
        assert first != second
