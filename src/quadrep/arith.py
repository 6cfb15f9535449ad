"""Elementary integer and rational arithmetic helpers.

Everything in this module is exact: integers are unbounded, rationals are
`fractions.Fraction`, and quadratic symbols are plain ints in {-1, 0, +1}.
Floating point never enters here; the prime sieve is an integer numpy array.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import FactorizationBoundError

Rational = int | Fraction

DEFAULT_FACTOR_BOUND = 10**12

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:  # a composite with no prime factor <= 37 is >= 41^2
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for all integers.

    Conventions: (a|0) = 1 iff a = +-1 and 0 otherwise; (a|-1) = -1 iff
    a < 0; (a|2) = 0 for even a and +-1 according to a mod 8 otherwise.
    With these the symbol is completely multiplicative in both arguments
    and agrees with the Jacobi and Legendre symbols where those apply.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # n is now odd and positive: usual Jacobi reciprocity loop.
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def eps(c: int) -> complex:
    """Unit in the classical quadratic Gauss sum for odd c > 0.

    eps(c) = 1 if c = 1 (mod 4) and i if c = 3 (mod 4).
    """
    if c <= 0 or c % 2 == 0:
        raise ValueError(f"eps requires odd positive c, got {c}")
    return 1 + 0j if c % 4 == 1 else 1j


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of |n| by trial division, primes ascending.

    Raises FactorizationBoundError when |n| exceeds DEFAULT_FACTOR_BOUND,
    which keeps worst-case trial division near its square root, 10**6 steps.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    if n > DEFAULT_FACTOR_BOUND:
        raise FactorizationBoundError(
            f"|n| = {n} exceeds factorization bound {DEFAULT_FACTOR_BOUND}"
        )
    out: list[tuple[int, int]] = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    # 6k +- 1 wheel.
    p = 5
    while p * p <= n:
        for q in (p, p + 2):
            if n % q == 0:
                e = 0
                while n % q == 0:
                    n //= q
                    e += 1
                out.append((q, e))
        p += 6
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of |n|."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def valuation(x: Rational, p: int) -> int:
    """Exponent of p >= 2 in the nonzero rational x: the factors of p counted.

    Primality is the caller's to check, where the prime is handed in.
    """
    if p < 2:
        raise ValueError(f"valuation requires p >= 2, got {p}")
    num, den = (x.numerator, x.denominator) if isinstance(x, Fraction) else (x, 1)
    if num == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def sqrt_mod(n: int, p: int) -> int:
    """A square root of n modulo an odd prime p (Tonelli-Shanks).

    Requires n to be a quadratic residue; raises ValueError otherwise.
    """
    n %= p
    if n == 0:
        return 0
    if kronecker(n, p) != 1:
        raise ValueError(f"{n} is not a square mod {p}")
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    # Write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def primes_upto(n: int) -> np.ndarray:
    """The primes <= n, ascending, as an int64 array (sieve of Eratosthenes)."""
    n = max(n, 1)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).astype(np.int64, copy=False)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = gcd(a, b) = a*x + b*y, g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y
