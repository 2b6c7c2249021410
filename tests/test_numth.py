import os
import subprocess
import sys

import pytest

import revsym
from revsym import numth
from revsym.numth import predicted_count, square_roots_of_unity


def enumerate_roots(n):
    """Plain enumeration: the oracle for the CRT construction."""
    return [m for m in range(1, n + 1) if m * m % n == 1 % n]


class TestEnumeration:
    def test_reference_sets(self):
        assert square_roots_of_unity(15) == [1, 4, 11, 14]
        assert square_roots_of_unity(8) == [1, 3, 5, 7]
        assert square_roots_of_unity(12) == [1, 5, 7, 11]

    def test_edge_cases(self):
        assert square_roots_of_unity(1) == [1]
        assert square_roots_of_unity(2) == [1]
        assert square_roots_of_unity(3) == [1, 2]
        assert square_roots_of_unity(4) == [1, 3]

    def test_symmetry(self):
        for n in range(3, 200):
            roots = square_roots_of_unity(n)
            assert all((n - m) % n in [r % n for r in roots] for m in roots)

    def test_odd_prime_powers_have_only_trivial_roots(self):
        for n in (3, 9, 27, 81, 5, 25, 125, 7, 49, 343, 11, 121):
            assert square_roots_of_unity(n) == [1, n - 1]

    def test_matches_plain_enumeration_to_2000(self):
        for n in range(1, 2001):
            assert square_roots_of_unity(n) == enumerate_roots(n), n
            # again, from the factorisation the first call cached
            assert square_roots_of_unity(n) == enumerate_roots(n), n

    def test_eight_prime_factors(self):
        n = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19
        roots = square_roots_of_unity(n)
        assert len(roots) == predicted_count(n) == 2 ** 7
        assert roots == sorted(roots)
        assert all(m * m % n == 1 for m in roots)

    def test_invalid(self):
        with pytest.raises(ValueError):
            square_roots_of_unity(0)
        with pytest.raises(ValueError):
            square_roots_of_unity(-3)


class TestPredictedCount:
    def test_reference_counts(self):
        assert predicted_count(15) == 4
        assert predicted_count(8) == 4
        assert predicted_count(12) == 4

    def test_edges(self):
        assert predicted_count(1) == 1
        assert predicted_count(2) == 1
        assert predicted_count(3) == 2
        assert predicted_count(4) == 2

    def test_formula_matches_enumeration_to_10000(self):
        for n in range(3, 10001):
            assert predicted_count(n) == len(square_roots_of_unity(n)), n


class TestFactorCache:
    """Both functions read the factorisation of n from a one-entry cache."""

    def test_cached_n_is_still_validated(self):
        # 15.0 == 15 and hashes alike, so a cache keyed on the value of n
        # alone would answer it from the entry of 15
        assert square_roots_of_unity(15) == [1, 4, 11, 14]
        for f in (square_roots_of_unity, predicted_count):
            with pytest.raises(ValueError):
                f(15.0)
        assert numth._factors.cache_info().currsize <= 1


def test_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(revsym.__file__))
    code = "import revsym, sys; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"
