"""Square roots of unity modulo n, built by the Chinese remainder theorem,
and the closed-form count 2^a (n odd, a distinct prime divisors)
respectively 2^(a + min(k, 2)) for n = 2^(k+1) * (2l+1) even, with a the
number of distinct odd prime divisors.  Each n is factored once for both:
the last factorisation is cached, so criterion 8, which asks for the roots
and then the count of each n, divides n only once.  The power of 2 in n is
read as n & -n; the odd primes up to sqrt(`_MAX_N`) are listed once, on
first use, and tried in turn, which divides every n up to the cap in full
(`exactmath._prime_powers` tries odd numbers past them above it).  The tests
check the construction against direct enumeration; criterion 8 checks the
count formula against the construction."""

from __future__ import annotations

from functools import lru_cache

from .exactmath import _MAX_N, _prime_powers


def _check_n(n: int):
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if n > _MAX_N:
        raise ValueError(f"n is capped at {_MAX_N} (desk scale)")


@lru_cache(maxsize=1)
def _factors(n: int):
    """(2^k, [q, ...]): the power of 2 and the odd prime powers q exactly
    dividing n; called only after `_check_n`, so that the cache never
    stands in for the check."""
    two = n & -n
    return two, [q for _, q in _prime_powers(n // two)]


def square_roots_of_unity(n: int) -> list[int]:
    """All m in [1, n] with m^2 = 1 (mod n), in increasing order.

    Modulo an odd prime power q the roots are +-1; modulo 2, 4 and 2^k
    (k >= 3) they are {1}, {1, 3} and {1, 2^(k-1) +- 1, 2^k - 1}.  The roots
    modulo n are their combinations by the Chinese remainder theorem.
    """
    _check_n(n)
    modulus, odd = _factors(n)
    half = modulus // 2
    roots = ((1,) if modulus <= 2 else (1, 3) if modulus == 4
             else (1, half - 1, half + 1, modulus - 1))
    for q in odd:
        inv = pow(modulus, -1, q)
        roots = [r + modulus * ((s - r) * inv % q) for r in roots
                 for s in (1, -1)]
        modulus *= q
    # r in [1, modulus] plus t * modulus with 0 <= t < q stays in
    # [1, modulus * q], so every root lies in [1, n]
    return sorted(roots)


def predicted_count(n: int) -> int:
    """Closed-form number of square roots of unity modulo n."""
    _check_n(n)
    two, odd = _factors(n)
    # each odd prime doubles the count; two = 1, 2, 4, >= 8 gives 1, 1, 2, 4
    return 2 ** len(odd) * {1: 1, 2: 1, 4: 2}.get(two, 4)
