import os
import subprocess
import sys

import pytest

import revsym
from revsym import numth, verify
from revsym.exactmath import _prime_powers
from revsym.numth import predicted_count, square_roots_of_unity


def enumerate_roots(n):
    """Plain enumeration: the oracle for the CRT construction."""
    return [m for m in range(1, n + 1) if m * m % n == 1 % n]


def crt_roots_reference(n):
    """The CRT construction as it stood with a plain odd trial division:
    the local roots of 2^k, then of each odd p^k in turn, combined and
    sorted."""
    factors, m, p = [], n, 3
    if n % 2 == 0:
        factors.append((2, n & -n))
        m //= n & -n
    while p * p <= m:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            factors.append((p, q))
        p += 2
    if m > 1:
        factors.append((m, m))
    roots, modulus = [1], 1
    for p, q in factors:
        if p > 2 or q == 4:
            local = (1, q - 1)
        elif q == 2:
            local = (1,)
        else:
            local = (1, q // 2 - 1, q // 2 + 1, q - 1)
        inv = pow(modulus, -1, q)
        roots = [r + modulus * ((s - r) * inv % q) for r in roots
                 for s in local]
        modulus *= q
    return sorted(roots)


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

    def test_at_the_cap(self):
        # the largest prime below the cap, the cap, 2 times two primes the
        # second of which lies past the prime table, and 2^23
        expected = {9999991: [1, 9999990],
                    10 ** 7: 8,
                    2 * 1579 * 3163: 4,
                    2 ** 23: [1, 2 ** 22 - 1, 2 ** 22 + 1, 2 ** 23 - 1]}
        for n, want in expected.items():
            roots = square_roots_of_unity(n)
            assert (roots if isinstance(want, list) else len(roots)) == want, n
            assert all(r * r % n == 1 for r in roots), n
            assert roots == sorted(set(roots)), n
            assert len(roots) == predicted_count(n), n

    def test_matches_the_plain_construction_to_20000(self):
        for n in range(1, 20001):
            assert square_roots_of_unity(n) == crt_roots_reference(n), n

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


def test_criterion_8_factors_each_n_once(monkeypatch):
    # the three fixed n, then one factorisation for each n in 3..10000,
    # whose count reads the entry its roots left in the cache
    calls = []

    def counted(n):
        calls.append(n)
        return _prime_powers(n)

    numth._factors.cache_clear()
    monkeypatch.setattr(numth, "_prime_powers", counted)
    assert verify.criterion_8_modular_roots().passed
    assert len(calls) == 10001


def test_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(revsym.__file__))
    code = "import revsym, sys; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"
