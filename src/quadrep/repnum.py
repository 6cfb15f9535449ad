"""Representation numbers: solutions of N(lambda)/N(ideal) = m (mod b).

rep_count_bruteforce reads the count straight off the residue enumeration;
rep_count assembles the same number from the closed prime-power counts via
multiplicativity in b; rep_from_gauss_dft inverts the closed Gauss sums of
`gauss.gauss_closed` at one prime power, in exact integers and without any
enumeration.  The three routes are kept independent so they can check each
other, and g_rep exposes the exactly divisible rescaling rep_count(b*D)/D.
"""

from __future__ import annotations

from .arith import factorize, is_prime, kronecker, valuation
from .errors import ConsistencyError
from .gauss import gauss_closed
from .ideals import (
    DEFAULT_MAX_ENUM_B,
    FracIdeal,
    genus_fingerprint,
    ramified_sign,
    residue_norm_profile,
)
from .quadfield import Discriminant


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
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
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


def rep_from_gauss_dft(ideal: FracIdeal, m: int, p: int, beta: int) -> int:
    """The count at b = p^beta as (1/b) sum_{a mod b} G_b(ideal, a) e(-a m / b).

    G comes from gauss_closed alone.  With a = p^alpha * u, u a unit mod
    p^j and j = beta - alpha, G depends on u at most through (u | p), so
    each alpha < beta contributes G(p^alpha) times a sum over u: for a
    rational G the Ramanujan sum c_{p^j}(m); for a ramified G, which
    carries eps(p) sqrt(p), the twisted sum p^(j-1) (-m/p^(j-1) | p)
    eps(p) sqrt(p) when p^(j-1) || m and 0 otherwise, so that the product
    holds eps(p)^2 p = (-1 | p) p.  Both sums vanish for j > nu + 1,
    nu = min(val_p(m), beta), which leaves at most nu + 2 exact integer
    terms with alpha = beta (a = 0) among them.  Every coeff is an int, so
    the sum and its division by b, which must be exact, stay in ints.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if p < 2:  # gauss_closed tests larger p for primality
        raise ValueError(f"{p} is not prime")
    b = p**beta
    nu = beta if m % b == 0 else valuation(m, p)
    total = b * b  # a = 0
    for j in range(1, min(nu + 1, beta) + 1):
        g = gauss_closed(ideal, p ** (beta - j), p, beta)
        q = p ** (j - 1)
        if g.kind == "rational":  # the Ramanujan sum c_{p^j}(m)
            weight = p * q - q if j <= nu else -q
        elif j == nu + 1:  # the twisted sum, times the eps(p) sqrt(p) in g
            weight = q * kronecker(-(m // q), p) * kronecker(-1, p) * p
        else:
            weight = 0
        total += g.coeff * weight
    n, r = divmod(total, b)
    if r:
        raise ConsistencyError(f"Gauss DFT total {total} is not divisible by {b}")
    return n
