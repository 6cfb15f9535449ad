"""Generalized divisor sums twisted by genus characters.

sigma(ideal, m, s) = |m|^((1-s)/2) * sum over positive d | m of
d^s * prod over ramified p of (chi_{D(p)}(d) + chi_{D(p)}(N * m/d)),
where D(p) is the prime discriminant +-p = 1 (mod 4) attached to p and the
norm enters only through the genus fingerprint.  Three independent
evaluation routes are provided: the defining sum, the rearrangement over
discriminant decompositions D = D1 * D2, and the Euler product.  The ramified
Euler factors take their sign from `ideals.ramified_sign`; the defining sum and
the decomposition never call it, so each stays an independent check on it.

Each route is scaled so that no intermediate exceeds the result: |m|^((1-s)/2)
is split as sqrt|m| times |m|^(-s/2), and the second part is spread over the
terms, d^s becoming (d^2/|m|)^(s/2) and each Euler factor at p^nu || m being
centred by p^(-nu s/2).  sigma(m, 400) for m = 6 (about 1e156) is then finite
although 6^400 is not.
"""

from __future__ import annotations

import math

from .arith import divisors, factorize, kronecker, valuation
from .ideals import GenusFingerprint, ramified_sign
from .quadfield import Discriminant


def prime_discriminant(disc: Discriminant, p: int) -> int:
    """The prime discriminant attached to a ramified prime: p or -p, = 1 mod 4."""
    if p not in disc.primes:
        raise ValueError(f"{p} does not divide D = {disc.D}")
    return p if p % 4 == 1 else -p


def disc_decompositions(disc: Discriminant) -> list[tuple[int, int]]:
    """All ordered factorizations D = D1 * D2 into coprime discriminants.

    D1 runs over products of prime discriminants for each subset of the
    ramified primes (in bit order), D2 over the complement; both are 1 mod 4
    and there are 2^omega pairs.
    """
    dps = [prime_discriminant(disc, p) for p in disc.primes]
    out = []
    for mask in range(1 << len(dps)):
        d1 = d2 = 1
        for i, dp in enumerate(dps):
            if mask >> i & 1:
                d1 *= dp
            else:
                d2 *= dp
        out.append((d1, d2))
    return out


def _check_m(m: int) -> None:
    if m == 0:
        raise ValueError("sigma is defined for nonzero m only")


def _weight(fp: GenusFingerprint, m: int, d: int) -> int:
    """The weight f(d) of d | m in the defining sum: the product over the
    ramified p of chi_{D(p)}(d) + sign_p * chi_{D(p)}(m/d)."""
    f = 1
    for p, sign in zip(fp.disc.primes, fp.signs):
        dp = prime_discriminant(fp.disc, p)
        f *= kronecker(dp, d) + sign * kronecker(dp, m // d)
        if f == 0:
            break
    return f


def sigma_def(fp: GenusFingerprint, m: int, s: float) -> float:
    """The defining divisor sum."""
    _check_m(m)
    total = 0.0
    for d in divisors(m):
        f = _weight(fp, m, d)
        if f:
            total += f * (d * d / abs(m)) ** (s / 2)
    return math.sqrt(abs(m)) * total


def _local_factor(fp: GenusFingerprint, m: int, p: int, s: float, chi: int) -> float:
    """The Euler factor at p, chi = chi_D(p), as a sum over k <= nu = val_p(m),
    centred: times p^(-nu s/2).

    The weight of p^(ks) is chi^k, so at p not dividing D the factor is the
    geometric sum of (chi p^s)^k.  At a ramified p chi = 0 leaves the k = 0
    term, and the sign from ramified_sign joins the k = nu term: the factor
    is 1 + sign * p^(nu s).  The terms are added one by one, each already
    centred, so they are at most p^(nu |s|/2), the size of the centred
    factor itself.
    """
    nu = valuation(m, p)
    weights = [chi**k for k in range(nu + 1)]
    if chi == 0:
        weights[nu] += ramified_sign(fp.disc, p, m, fp.sign(p))
    return sum(w * float(p) ** ((k - nu / 2) * s) for k, w in enumerate(weights) if w)


def sigma_euler(fp: GenusFingerprint, m: int, s: float) -> float:
    """The divisor sum as a finite Euler product over primes dividing m*D.

    Each factor at p^nu || m is taken centred, times p^(-nu s/2); the
    centring factors multiply to |m|^(-s/2), so sqrt|m| is all that is left.
    """
    _check_m(m)
    disc = fp.disc
    value = 1.0
    for p in disc.primes:
        value *= _local_factor(fp, m, p, s, 0)
    for p, _ in factorize(m):
        if disc.D % p != 0:
            value *= _local_factor(fp, m, p, s, kronecker(disc.D, p))
    return math.sqrt(abs(m)) * value


def sigma_decomp(fp: GenusFingerprint, m: int, s: float) -> float:
    """The divisor sum rearranged over discriminant decompositions D1 * D2.

    Each pair contributes chi_{D1}(m_{D2}) chi_{D2}(N m_0 m_{D1}) m_{D2}^s,
    where m_{Di} is the Di-part of m and m_0 the rest; a common factor
    collects the unramified Euler factors.
    """
    _check_m(m)
    disc = fp.disc
    fac = dict(factorize(m))
    unram = 1.0
    for p in fac:
        if disc.D % p != 0:
            unram *= _local_factor(fp, m, p, s, kronecker(disc.D, p))
    # the ramified part m_D1 * m_D2 of m is the same for every pair
    m_ram = math.prod(p ** fac.get(p, 0) for p in disc.primes)
    fp_by_p = fp.as_dict()
    total = 0.0
    for d1, d2 in disc_decompositions(disc):
        m_d1 = m_d2 = 1
        chi_d2_norm = 1
        for p in disc.primes:
            e = fac.get(p, 0)
            if abs(d1) % p == 0:
                m_d1 *= p**e
            else:
                m_d2 *= p**e
                chi_d2_norm *= fp_by_p[p]
        m0 = m // (m_d1 * m_d2)
        term = (
            kronecker(d1, m_d2)
            * chi_d2_norm
            * kronecker(d2, m0 * m_d1)
            * (m_d2 * m_d2 / m_ram) ** (s / 2)
        )
        total += term
    return math.sqrt(abs(m)) * total * unram


def sigma_vanishes(fp: GenusFingerprint, m: int) -> bool:
    """True iff sigma(., m, s) is identically zero in s.

    Happens exactly when chi_{D(p)}(N * m) = -1 for some ramified p; a prime
    p dividing m gives symbol 0 there and never triggers this.
    """
    _check_m(m)
    disc = fp.disc
    for p, sign in zip(disc.primes, fp.signs):
        dp = prime_discriminant(disc, p)
        if sign * kronecker(dp, m) == -1:
            return True
    return False
