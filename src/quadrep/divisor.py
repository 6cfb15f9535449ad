"""Generalized divisor sums twisted by genus characters.

sigma(ideal, m, s) = |m|^((1-s)/2) * sum over positive d | m of
d^s * prod over ramified p of (chi_{D(p)}(d) + chi_{D(p)}(N * m/d)),
where D(p) is the prime discriminant +-p = 1 (mod 4) attached to p and the
norm enters only through the genus fingerprint.  Three independent
evaluation routes are provided: the defining sum, the rearrangement over
discriminant decompositions D = D1 * D2, and the Euler product.  The ramified
Euler factors take their sign from `ideals.ramified_sign`; the defining sum and
the decomposition never call it, so each stays an independent check on it.
"""

from __future__ import annotations

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


def sigma_def(fp: GenusFingerprint, m: int, s: float) -> float:
    """The defining divisor sum."""
    _check_m(m)
    disc = fp.disc
    dps = [prime_discriminant(disc, p) for p in disc.primes]
    total = 0.0
    for d in divisors(m):
        f = 1
        for dp, sign in zip(dps, fp.signs):
            f *= kronecker(dp, d) + sign * kronecker(dp, m // d)
            if f == 0:
                break
        if f:
            total += f * float(d) ** s
    return abs(m) ** ((1 - s) / 2) * total


def sigma_factor_unramified(disc: Discriminant, m: int, p: int, s: float) -> float:
    """Euler factor at p not dividing D: geometric sum of chi_D(p)^k p^(ks).

    Equals (1 - (chi p^s)^(nu+1)) / (1 - chi p^s) with nu = val_p(m), read as
    the limit nu + 1 when chi_D(p) p^s = 1.
    """
    _check_m(m)
    if disc.D % p == 0:
        raise ValueError(f"{p} ramifies in D = {disc.D}")
    nu = valuation(m, p)
    chi = kronecker(disc.D, p)
    t = chi * float(p) ** s
    if t == 1.0:
        return float(nu + 1)
    return (1 - t ** (nu + 1)) / (1 - t)


def sigma_factor_ramified(fp: GenusFingerprint, m: int, p: int, s: float) -> float:
    """Euler factor at a ramified p: 1 + sign * p^(nu s).

    The sign is ramified_sign with nu = val_p(m), the norm symbol coming
    from the fingerprint.
    """
    _check_m(m)
    sign = ramified_sign(fp.disc, p, m, fp.sign(p))
    return 1 + sign * float(p ** valuation(m, p)) ** s


def sigma_euler(fp: GenusFingerprint, m: int, s: float) -> float:
    """The divisor sum as a finite Euler product over primes dividing m*D."""
    _check_m(m)
    disc = fp.disc
    value = 1.0
    for p in disc.primes:
        value *= sigma_factor_ramified(fp, m, p, s)
    for p, _ in factorize(m):
        if disc.D % p != 0:
            value *= sigma_factor_unramified(disc, m, p, s)
    return abs(m) ** ((1 - s) / 2) * value


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
            unram *= sigma_factor_unramified(disc, m, p, s)
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
            * float(m_d2) ** s
        )
        total += term
    return abs(m) ** ((1 - s) / 2) * total * unram


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
