"""Square roots of unity modulo n, built by the Chinese remainder theorem,
and the closed-form count 2^a (n odd, a distinct prime divisors)
respectively 2^(a + min(k, 2)) for n = 2^(k+1) * (2l+1) even, with a the
number of distinct odd prime divisors.  Each n is factored once for both:
the last factorisation is cached, so criterion 8, which asks for the roots
and then the count of each n, divides n only once.  The tests check the
construction against direct enumeration; criterion 8 checks the count
formula against the construction."""

from __future__ import annotations

from functools import lru_cache

from .exactmath import _prime_powers

_MAX_N = 10 ** 7


def _check_n(n: int):
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if n > _MAX_N:
        raise ValueError(f"n is capped at {_MAX_N} (desk scale)")


@lru_cache(maxsize=1)
def _factors(n: int):
    """(p, p^k) for each prime power exactly dividing n; called only after
    `_check_n`, so that the cache never stands in for the check."""
    return tuple(_prime_powers(n))


def square_roots_of_unity(n: int) -> list[int]:
    """All m in [1, n] with m^2 = 1 (mod n), in increasing order.

    Modulo an odd prime power q the roots are +-1; modulo 2, 4 and 2^k
    (k >= 3) they are {1}, {1, 3} and {1, 2^(k-1) +- 1, 2^k - 1}.  The roots
    modulo n are their combinations by the Chinese remainder theorem.
    """
    _check_n(n)
    roots, modulus = [1], 1
    for p, q in _factors(n):
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
    # r in [1, modulus] plus t * modulus with 0 <= t < q stays in
    # [1, modulus * q], so every root lies in [1, n]
    roots.sort()
    return roots


def predicted_count(n: int) -> int:
    """Closed-form number of square roots of unity modulo n."""
    _check_n(n)
    two = n & -n  # the power of 2 exactly dividing n
    odd_primes = len(_factors(n)) - (1 if two > 1 else 0)
    # each odd prime doubles the count; two = 1, 2, 4, >= 8 gives 1, 1, 2, 4
    return 2 ** odd_primes * {1: 1, 2: 1, 4: 2}.get(two, 4)
