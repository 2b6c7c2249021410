"""Umbrella verification suite: the reference identities and structural
claims the package is built around, bundled as nine runnable criteria.

Each criterion returns a CriterionResult with a pass flag, detail lines and
its wall time; `run_all` executes the whole scoreboard.  All checks are
exact, so each criterion either reproduces its target values identically or
fails."""

from __future__ import annotations

import itertools
import random
import time

from . import absgroup, elliptic, numth, polyauto
from .exactmath import (
    IntMatrix,
    IntPoly,
    RECIPROCAL_NONE,
    _Record,
    char_poly,
    finite_order_test,
    mat_mul,
    mat_pow,
    reciprocity_class,
)
from .matgroup import (
    CASE_DINF,
    CASE_ONE,
    CASE_THREE,
    CASE_TWO,
    GroupContext,
    STATUS_CLASSIFIED,
    STATUS_IRREVERSIBLE,
    analyze,
    find_conjugator,
    is_reversor,
    is_symmetry,
    pgl_reciprocity_ok,
    search_reversors,
    symmetry_generator_2x2,
)

GL2 = GroupContext(2)
PGL2 = GroupContext(2, projective=True)
PGL4 = GroupContext(4, projective=True)

FIB = IntMatrix([[0, 1], [1, 1]])
R2 = IntMatrix([[1, 0], [1, -1]])
R4 = IntMatrix([[0, -1], [1, 0]])
CASE1_M = IntMatrix([[1, 2], [1, 3]])
CASE2_M = IntMatrix([[5, 7], [7, 10]])
CASE3_M = IntMatrix([[1, 1], [1, 2]])

M4 = IntMatrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 2, 2, 2]])
RR4 = IntMatrix([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])
N4 = IntMatrix([[1, 0, -3, 1], [-1, 3, 2, -1], [1, -3, 1, 0], [0, 1, -3, 1]])


class CriterionResult(_Record):
    __slots__ = ("number", "name", "time_limit", "passed", "elapsed",
                 "details")
    __hash__ = None  # mutable

    def __init__(self, number, name, time_limit, passed=True, elapsed=0.0,
                 details=None):
        self._fill(number, name, time_limit, passed, elapsed,
                   [] if details is None else details)

    def check(self, condition, label):
        self.details.append(("PASS" if condition else "FAIL") + " " + label)
        if not condition:
            self.passed = False
        return condition


def _run(number, name, limit, body):
    result = CriterionResult(number=number, name=name, time_limit=limit)
    start = time.perf_counter()
    try:
        body(result)
    except Exception as exc:  # a crash is a failure with diagnostics
        result.passed = False
        result.details.append(f"FAIL exception: {exc!r}")
    result.elapsed = time.perf_counter() - start
    return result


def criterion_1_fibonacci_pgl() -> CriterionResult:
    """Fibonacci matrix in PGL(2,Z): involutory reversors, non-conjugacy of
    the two involutions, infinite-dihedral classification."""
    def body(res):
        rprime = mat_mul(R2, FIB)
        res.check(rprime == -R4, "R*M equals [[0,-1],[1,0]] up to sign")
        res.check(finite_order_test(R2, projective=True) == 2,
                  "R is an involution in PGL(2,Z)")
        res.check(finite_order_test(rprime, projective=True) == 2,
                  "R' = R*M is an involution in PGL(2,Z)")
        res.check(is_reversor(R2, FIB, PGL2), "R reverses M")
        res.check(is_reversor(rprime, FIB, PGL2), "R' reverses M")
        res.check(find_conjugator(R2, R4, PGL2, 10) is None,
                  "R and R' are not conjugate")
        report = analyze(FIB, PGL2)
        res.check(report.status == STATUS_CLASSIFIED
                  and report.classification_case == CASE_DINF,
                  "analysis reports the infinite dihedral structure")
        res.check(bool(report.reversors)
                  and all(order == 2 for _, order in report.reversors),
                  "every reversor found is an involution")
    return _run(1, "fibonacci-pgl-suite", 1.0, body)


def criterion_2_classification() -> CriterionResult:
    """The three 2x2 matrices landing in the three classification cases,
    cross-checked against exhaustive bounded reversor enumeration."""
    def body(res):
        res.check(analyze(CASE1_M, GL2).classification_case == CASE_ONE,
                  "[[1,2],[1,3]] lands in case 1")
        res.check(analyze(CASE2_M, GL2).classification_case == CASE_TWO,
                  "[[5,7],[7,10]] lands in case 2")
        res.check(analyze(CASE3_M, GL2).classification_case == CASE_THREE,
                  "[[1,1],[1,2]] lands in case 3")
        for case, m, want, text in ((1, CASE1_M, {2}, "{2}"),
                                    (2, CASE2_M, {4}, "{4}"),
                                    (3, CASE3_M, {2, 4}, "{2,4}")):
            res.check({order for _, order in search_reversors(m, GL2, 5)}
                      == want, f"case {case} spectrum {text} at bound 5")
    return _run(2, "classification-triple", 5.0, body)


def criterion_3_irreversibility() -> CriterionResult:
    """The Fibonacci matrix is provably irreversible in GL(2,Z) while its
    square is reversible with both reversor orders present."""
    def body(res):
        report = analyze(FIB, GL2)
        res.check(report.status == STATUS_IRREVERSIBLE,
                  "analysis proves [[0,1],[1,1]] irreversible in GL(2,Z)")
        res.check(report.reciprocity == RECIPROCAL_NONE,
                  "characteristic polynomial is not self-reciprocal")
        square = analyze(mat_pow(FIB, 2), GL2)
        res.check(square.status == STATUS_CLASSIFIED
                  and square.classification_case == CASE_THREE,
                  "its square lands in case 3")
    return _run(3, "irreversibility-obstruction", 1.0, body)


def criterion_4_quartic_suite() -> CriterionResult:
    """The 4x4 pair with an order-2 reversor, a commuting symmetry of
    infinite order, and a reversor of infinite order."""
    def body(res):
        res.check(char_poly(M4) == IntPoly([1, -2, -2, -2, 1]),
                  "char poly of M is x^4-2x^3-2x^2-2x+1")
        q = char_poly(N4)
        res.check(q == IntPoly([1, -14, 22, -6, 1]),
                  "char poly of N is x^4-6x^3+22x^2-14x+1")
        res.check(reciprocity_class(q) == RECIPROCAL_NONE,
                  "Q is not self-reciprocal")
        res.check(not pgl_reciprocity_ok(q),
                  "Q fails reciprocity even after the sign variant")
        nprime = mat_mul(M4, N4)
        res.check(nprime == IntMatrix([[-1, 3, 2, -1], [1, -3, 1, 0],
                                       [0, 1, -3, 1], [-1, 2, 3, -1]]),
                  "N' = M*N matches the expected product")
        res.check(is_symmetry(N4, M4, PGL4), "N commutes with M")
        res.check(is_symmetry(nprime, M4, PGL4), "N' commutes with M")
        res.check(mat_mul(RR4, RR4) == IntMatrix.identity(4),
                  "R is an involution")
        res.check(is_reversor(RR4, M4, PGL4), "R reverses M")
        res.check(mat_mul(RR4, nprime) == mat_mul(nprime, RR4),
                  "R and N' commute")
        rprime = mat_mul(RR4, nprime)
        res.check(is_reversor(rprime, M4, PGL4), "R' = R*N' reverses M")
        res.check(finite_order_test(rprime, projective=True) is None,
                  "R' has infinite order")
    return _run(4, "quartic-pgl4-suite", 2.0, body)


def criterion_5_absgroup_models() -> CriterionResult:
    """Window verification of all nine presented group models."""
    def body(res):
        for tag in absgroup.MODEL_TAGS:
            model = absgroup.make_model(tag, p=3)
            window = 8 if model.p is not None else 6
            report = absgroup.verify_theorem_claims(model, window)
            res.check(report.all_passed,
                      f"model {tag} (window {window}): "
                      f"{len(report.claims)} claims, spectrum "
                      f"{report.order_spectrum}")
    return _run(5, "presented-group-models", 10.0, body)


def criterion_6_polyauto() -> CriterionResult:
    """Planar polynomial example families and the trace map."""
    def body(res):
        for case in (1, 2, 3):
            fam = polyauto.build_example_family(case)
            for name, ok in polyauto.family_checks(fam):
                res.check(ok, f"case {case}: {name}")
        for name, ok in polyauto.trace_map_suite():
            res.check(ok, f"trace map: {name}")
    return _run(6, "polynomial-automorphisms", 5.0, body)


def criterion_7_elliptic() -> CriterionResult:
    """Exact curve group law properties and reversibility of translations,
    over the distinct rational points that small multiples of the bases
    reach; `check_reversor_on_samples` compares r o f o r with the inverse
    translation symbolically before its pointwise loop."""
    def body(res):
        c1 = elliptic.Curve(0, 1)
        c2 = elliptic.Curve(-1, 0)
        s1 = elliptic.sample_points(c1, [elliptic.point(2, 3)])
        s2 = elliptic.sample_points(
            c2, [elliptic.point(0, 0), elliptic.point(1, 0)])
        for curve, samples, label in ((c1, s1, "y^2=x^3+1"),
                                      (c2, s2, "y^2=x^3-x")):
            res.check(all(elliptic.is_on_curve(curve, elliptic.add(curve, p, q))
                          for p in samples for q in samples),
                      f"{label}: closure and exactness on "
                      f"{len(samples)} samples")
            res.check(all(elliptic.add(curve, p, q) == elliptic.add(curve, q, p)
                          for p in samples for q in samples),
                      f"{label}: commutativity")
            res.check(all(elliptic.add(curve, elliptic.add(curve, p, q), r)
                          == elliptic.add(curve, p, elliptic.add(curve, q, r))
                          for p, q, r in itertools.product(samples, repeat=3)),
                      f"{label}: associativity on sample triples")
            res.check(all(elliptic.map_order_two(
                curve, elliptic.neg_translation(curve, s)) for s in samples),
                f"{label}: every point reflection is an involution")
            res.check(all(elliptic.check_reversor_on_samples(
                curve, omega, s, samples) for omega in samples for s in samples),
                      f"{label}: reflections conjugate translations to "
                      f"their inverses, symbolically and pointwise")
    return _run(7, "elliptic-curve-suite", 2.0, body)


def criterion_8_modular_roots() -> CriterionResult:
    """Closed-form count of square roots of unity versus enumeration."""
    def body(res):
        res.check(numth.square_roots_of_unity(15) == [1, 4, 11, 14],
                  "n=15 roots {1,4,11,14}")
        res.check(numth.square_roots_of_unity(8) == [1, 3, 5, 7],
                  "n=8 roots {1,3,5,7}")
        res.check(numth.square_roots_of_unity(12) == [1, 5, 7, 11],
                  "n=12 roots {1,5,7,11}")
        mismatches = [n for n in range(3, 10001)
                      if len(numth.square_roots_of_unity(n))
                      != numth.predicted_count(n)]
        res.check(not mismatches,
                  f"count formula matches enumeration for 3 <= n <= 10000 "
                  f"({len(mismatches)} mismatches)")
    return _run(8, "modular-square-roots", 5.0, body)


def criterion_9_property_suites() -> CriterionResult:
    """Randomized structural properties at a fixed seed: the grading of
    reversors, exclusion of odd orders, the order-divides-4 bound in
    GL(2,Z), and the reversor-square identity."""
    def body(res):
        rng = random.Random(20240815)
        matrix_cases = [(CASE1_M, GL2), (CASE2_M, GL2), (CASE3_M, GL2),
                        (FIB, PGL2)]
        pools = {}
        collected_orders = []
        for m, ctx in matrix_cases:
            desc = symmetry_generator_2x2(m, ctx)
            reversors = search_reversors(m, ctx, 3)
            collected_orders.extend(order for _, order in reversors)
            symmetries = [mat_pow(desc.generator, k).scaled(eps)
                          for k in range(-4, 5) for eps in (1, -1)]
            pools[(m, ctx)] = ([x for x, _ in reversors], symmetries, desc)

        # the draws as drawn, then each distinct one checked once, in the
        # order of its first draw
        draws = []
        for _ in range(500):
            m, ctx = matrix_cases[rng.randrange(len(matrix_cases))]
            reversors, symmetries, _ = pools[(m, ctx)]
            r1, r2 = rng.choice(reversors), rng.choice(reversors)
            draws.append((m, ctx, r1, r2, rng.choice(symmetries)))
        grading_ok = all(is_symmetry(mat_mul(r1, r2), m, ctx)
                         and is_reversor(mat_mul(r1, s), m, ctx)
                         for m, ctx, r1, r2, s in dict.fromkeys(draws))
        res.check(grading_ok, "grading: 500 matrix products closed correctly")

        res.check(all(o is None or o % 2 == 0 for o in collected_orders),
                  "no reversor of odd order anywhere")
        gl_orders = [order for m in (CASE1_M, CASE2_M, CASE3_M)
                     for _, order in search_reversors(m, GL2, 5)]
        res.check(all(o is not None and 4 % o == 0 for o in gl_orders),
                  "every GL(2,Z) reversor order divides 4")

        draws = []
        for _ in range(1000):
            m = (CASE1_M, CASE3_M)[rng.randrange(2)]
            j = rng.randint(-5, 5)
            k = rng.randint(1, 5)
            draws.append((m, j, k, rng.choice((1, -1))))
        identity_ok = True
        for m, j, k, eps in dict.fromkeys(draws):
            _, _, desc = pools[(m, GL2)]
            s = mat_pow(desc.generator, j).scaled(eps)
            lhs = mat_pow(mat_mul(R2, s), 2 * k)
            sigma_s = mat_mul(mat_mul(R2, s), R2)  # R2 s R2^-1, R2^2 = I
            rhs = mat_pow(mat_mul(sigma_s, s), k)
            if lhs != rhs:
                identity_ok = False
        res.check(identity_ok,
                  "reversor-square identity holds for 1000 random triples")
    return _run(9, "property-suites", 30.0, body)


ALL_CRITERIA = (
    criterion_1_fibonacci_pgl,
    criterion_2_classification,
    criterion_3_irreversibility,
    criterion_4_quartic_suite,
    criterion_5_absgroup_models,
    criterion_6_polyauto,
    criterion_7_elliptic,
    criterion_8_modular_roots,
    criterion_9_property_suites,
)


def run_all():
    return [fn() for fn in ALL_CRITERIA]
