"""Acceptance suite: nine exact criteria, each with a wall-time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  All arithmetic is exact, so every tolerance is zero: a
criterion passes only if its target values are reproduced identically.
"""

from collections import Counter

from revsym import verify


def _execute(criterion_fn):
    result = criterion_fn()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} criterion {result.number}: {result.name} "
          f"({result.elapsed:.3f}s, limit {result.time_limit}s)")
    if not result.passed:
        for line in result.details:
            print(f"    {line}")
    assert result.passed, f"criterion {result.number} failed: {result.details}"
    assert result.elapsed < result.time_limit, (
        f"criterion {result.number} took {result.elapsed:.3f}s, "
        f"limit {result.time_limit}s")
    return result


def test_criterion_1_fibonacci_pgl_suite():
    _execute(verify.criterion_1_fibonacci_pgl)


def test_criterion_2_classification_triple():
    _execute(verify.criterion_2_classification)


def test_criterion_3_irreversibility_obstruction():
    _execute(verify.criterion_3_irreversibility)


def test_criterion_4_quartic_pgl4_suite():
    _execute(verify.criterion_4_quartic_suite)


# The exact detail lines of criteria 5, 6 and 7, so that a faster criterion
# cannot drop or reword a check without this suite noticing.
CRITERION_5_DETAILS = [
    "PASS model dinf (window 6): 6 claims, spectrum [2]",
    "PASS model c2xdinf (window 6): 6 claims, spectrum [2]",
    "PASS model c4 (window 6): 4 claims, spectrum [4]",
    "PASS model c2xcinf (window 6): 4 claims, spectrum [2, 4]",
    "PASS model c2p (window 8): 5 claims, spectrum [2, 6]",
    "PASS model cpxcinf (window 8): 6 claims, spectrum [2]",
    "PASS model cinfxdinf (window 6): 6 claims, spectrum [2, None]",
    "PASS model twisted (window 6): 6 claims, spectrum [2, None]",
    "PASS model invc2 (window 6): 6 claims, spectrum [2]",
]

CRITERION_6_DETAILS = [
    "PASS case 1: reversor-identity",
    "PASS case 1: symmetry-identity",
    "PASS case 2: reversor-identity",
    "PASS case 2: symmetry-identity",
    "PASS case 3: reversor-identity",
    "PASS case 3: symmetry-identity",
    "PASS case 3: t-squares-to-f",
    "PASS case 3: t-r-is-order-4-reversor",
    "PASS trace map: invariant-preserved",
    "PASS trace map: swap-is-reversor",
    "PASS trace map: partner-is-reversor",
    "PASS trace map: reversors-are-involutions",
]

CRITERION_7_DETAILS = [
    "PASS y^2=x^3+1: closure and exactness on 6 samples",
    "PASS y^2=x^3+1: commutativity",
    "PASS y^2=x^3+1: associativity on sample triples",
    "PASS y^2=x^3+1: every point reflection is an involution",
    ("PASS y^2=x^3+1: reflections conjugate translations to their "
     "inverses, symbolically and pointwise"),
    "PASS y^2=x^3-x: closure and exactness on 4 samples",
    "PASS y^2=x^3-x: commutativity",
    "PASS y^2=x^3-x: associativity on sample triples",
    "PASS y^2=x^3-x: every point reflection is an involution",
    ("PASS y^2=x^3-x: reflections conjugate translations to their "
     "inverses, symbolically and pointwise"),
]


def test_criterion_5_presented_group_models():
    result = _execute(verify.criterion_5_absgroup_models)
    assert result.details == CRITERION_5_DETAILS  # one check per model


def test_criterion_6_polynomial_automorphisms():
    result = _execute(verify.criterion_6_polyauto)
    assert result.details == CRITERION_6_DETAILS


def test_criterion_7_elliptic_curve_suite():
    result = _execute(verify.criterion_7_elliptic)
    assert result.details == CRITERION_7_DETAILS


def test_criterion_8_modular_square_roots():
    _execute(verify.criterion_8_modular_roots)


def test_criterion_9_property_suites():
    _execute(verify.criterion_9_property_suites)


def test_scoreboard_complete():
    results = verify.run_all()
    assert len(results) == 9
    assert all(r.passed for r in results)


class TestCriterion9Draws:
    """Criterion 9 draws its 500 grading and 1,000 identity triples as
    before and checks each distinct one once: one corrupted draw fails it."""

    def test_each_distinct_draw_is_checked_once(self, monkeypatch):
        # of the draws of the fixed seed, 417 of the 500 grading draws are
        # distinct, and 218 of the 1,000 identity draws, three powers each
        # after the 72 that build the symmetry pools
        calls = Counter()

        def counting(fn):
            def counted(*args):
                calls[fn.__name__] += 1
                return fn(*args)
            return counted
        for name in ("is_symmetry", "is_reversor", "mat_pow"):
            monkeypatch.setattr(verify, name, counting(getattr(verify, name)))
        assert verify.criterion_9_property_suites().passed
        assert calls == {"is_symmetry": 417, "is_reversor": 417,
                         "mat_pow": 72 + 3 * 218}

    def test_a_corrupted_grading_draw_fails(self, monkeypatch):
        calls = []

        def wrong_once(x, m, ctx):
            calls.append(x)
            return len(calls) != 7 and is_symmetry(x, m, ctx)
        is_symmetry = verify.is_symmetry
        monkeypatch.setattr(verify, "is_symmetry", wrong_once)
        result = verify.criterion_9_property_suites()
        assert not result.passed
        assert [line for line in result.details if line.startswith("FAIL")] \
            == ["FAIL grading: 500 matrix products closed correctly"]

    def test_a_corrupted_identity_draw_fails(self, monkeypatch):
        # exponents 6, 8 and 10 are the 2k of the identity's left side only
        calls = []

        def wrong_once(x, e):
            if e in (6, 8, 10):
                calls.append(e)
                if len(calls) == 3:
                    return mat_pow(x, e).scaled(-1)
            return mat_pow(x, e)
        mat_pow = verify.mat_pow
        monkeypatch.setattr(verify, "mat_pow", wrong_once)
        result = verify.criterion_9_property_suites()
        assert not result.passed
        assert [line for line in result.details if line.startswith("FAIL")] \
            == ["FAIL reversor-square identity holds for 1000 random triples"]
