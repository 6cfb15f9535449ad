"""Representation numbers: solutions of N(lambda)/N(ideal) = m (mod b).

rep_count_bruteforce reads the count straight off the residue enumeration;
rep_count assembles the same number from the closed prime-power counts via
multiplicativity in b.  The two routes are kept independent so they can
check each other, and g_rep exposes the exactly divisible rescaling
rep_count(b*D)/D.
"""

from __future__ import annotations

import numpy as np

from .arith import factorize, kronecker, valuation
from .errors import ConsistencyError
from .gauss import ExponentVector, eval_complex
from .ideals import (
    DEFAULT_MAX_ENUM_B,
    FracIdeal,
    genus_fingerprint,
    ramified_sign,
    residue_norm_profile,
)
from .quadfield import Discriminant

DFT_RESIDUAL_TOL = 1e-6


def rep_count_bruteforce(
    ideal: FracIdeal, m: int, b: int, limit: int = DEFAULT_MAX_ENUM_B
) -> int:
    """Count lambda in ideal/(b*ideal) with norm ratio m (mod b), by enumeration."""
    return residue_norm_profile(ideal, b, limit)[m % b]


def unramified_count(chi: int, p, beta: int, nu: int):
    """Closed count at p^beta for p unramified, chi = chi_D(p) = +-1.

    nu = min(val_p(m), beta) as in rep_count_prime_power.  Only arithmetic
    on p, so p may also be a numpy array of primes sharing chi, beta and nu.
    """
    if chi == 1:
        if nu < beta:
            return (nu + 1) * (p - 1) * p ** (beta - 1)
        return (beta + 1) * p**beta - beta * p ** (beta - 1)
    if nu < beta:
        return (p + 1) * p ** (beta - 1) if nu % 2 == 0 else 0
    return p**beta if nu % 2 == 0 else p ** (beta - 1)


def rep_count_prime_power(
    disc: Discriminant, p: int, beta: int, m: int, na_sign: int | None = None
) -> int:
    """Closed count at modulus p^beta.

    nu = min(val_p(m), beta), with nu = beta when m = 0.  The split and inert
    cases depend only on nu and beta; the ramified case additionally needs
    na_sign, the Legendre symbol at p of the norm of a coprime ideal in the
    same genus.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if beta == 0:
        return 1
    chi = kronecker(disc.D, p)
    nu = beta if m == 0 else min(valuation(m, p), beta)
    if chi:
        return unramified_count(chi, p, beta, nu)
    # ramified
    if nu == beta:
        return p**beta
    return (1 + ramified_sign(disc, p, m, na_sign)) * p**beta


def rep_count(ideal: FracIdeal, m: int, b: int) -> int:
    """The representation number at modulus b from the prime-power closed forms."""
    if b < 1:
        raise ValueError(f"modulus must be >= 1, got {b}")
    disc = ideal.disc
    total = 1
    fp = None
    for p, e in factorize(b):
        if disc.D % p == 0:
            if fp is None:
                fp = genus_fingerprint(ideal)
            total *= rep_count_prime_power(disc, p, e, m, fp.sign(p))
        else:
            total *= rep_count_prime_power(disc, p, e, m)
        if total == 0:
            return 0
    return total


def g_rep(ideal: FracIdeal, m: int, b: int) -> int:
    """rep_count at modulus b*D, divided exactly by D."""
    disc = ideal.disc
    n = rep_count(ideal, m, b * disc.D)
    q, r = divmod(n, disc.D)
    if r:
        raise ConsistencyError(
            f"rep count {n} at modulus {b}*{disc.D} is not divisible by {disc.D}"
        )
    return q


def rep_from_gauss_dft(
    ideal: FracIdeal, m: int, p: int, beta: int, limit: int = DEFAULT_MAX_ENUM_B
) -> int:
    """Reconstruct the count at p^beta as (1/b) sum_a G_b(ideal, a) e(-a m / b).

    Accumulates the double sum over a and lambda as one exact integer
    exponent vector before any floating point: the pair (a, lambda)
    contributes to exponent s exactly when a*(r - m) = s (mod b) for the
    norm residue r of lambda, and the number of such a is gcd(r - m, b)
    when that gcd divides s, else 0.  Since b = p^beta, that gcd is p^k
    exactly for the residues r = m (mod p^k) that are not = m (mod p^(k+1)).
    With S_k the profile summed over the class r = m (mod p^k), so S_0 is
    the whole profile and S_(beta+1) = 0, the weight (S_k - S_(k+1)) * p^k
    lands on every exponent divisible by p^k.  The final complex evaluation
    must land within DFT_RESIDUAL_TOL of an integer.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    b = p**beta
    if b == 1:
        return 1
    profile = residue_norm_profile(ideal, b, limit)
    coeffs = np.zeros(b, dtype=np.int64)
    above = 0  # S_(k+1)
    for k in range(beta, -1, -1):
        q = p**k
        s_k = sum(profile[m % q :: q])
        coeffs[::q] += (s_k - above) * q
        above = s_k
    value = eval_complex(ExponentVector(b, coeffs)) / b
    n = round(value.real)
    if abs(value - n) > DFT_RESIDUAL_TOL:
        raise ConsistencyError(
            f"DFT reconstruction {value} is not within {DFT_RESIDUAL_TOL} of an integer"
        )
    return n
