"""mpmath reference for Dirichlet L-values, the closed side of the series
identity and its residue at s = 2.

L(s, chi_D) is a finite sum of Hurwitz zeta values,
L(s, chi) = D^(-s) sum over 0 < a < D of chi(a) zeta(s, a/D), and at s = 1
the digamma function takes their place: L(1, chi) = -D^(-1) sum of
chi(a) psi(a/D).  Both are evaluated at 30 digits.  Neither shares code with
the library's closed forms or truncated sums, only the character values,
which come from kronecker.  Each value is cached: one L(2) at D = 4389
costs about a second.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import mpmath

from quadrep.arith import divisors, kronecker
from quadrep.divisor import prime_discriminant
from quadrep.ideals import GenusFingerprint

DIGITS = 30


@functools.lru_cache(maxsize=None)
def l_value(D: int, s: float) -> mpmath.mpf:
    """L(s, chi_D) for s >= 1 through Hurwitz zeta (digamma at s = 1)."""
    with mpmath.workdps(DIGITS):
        total = mpmath.mpf(0)
        for a in range(1, D):
            c = kronecker(D, a)
            if c:
                x = mpmath.mpf(a) / D
                total += c * (-mpmath.digamma(x) if s == 1 else mpmath.zeta(s, x))
        return total / mpmath.mpf(D) ** s


def _weights(fp: GenusFingerprint, m: int):
    """(d, f(d)) for d | m, f(d) the product over ramified p of
    chi_p(d) + sign_p chi_p(m/d)."""
    dps = [prime_discriminant(fp.disc, p) for p in fp.disc.primes]
    for d in divisors(m):
        f = 1
        for dp, sign in zip(dps, fp.signs):
            f *= kronecker(dp, d) + sign * kronecker(dp, m // d)
        yield d, f


def residue(fp: GenusFingerprint, m: int) -> mpmath.mpf:
    """The residue at s = 2: L(1)/L(2) for m = 0, else |m|^(-1) sigma(m, -1)/L(2).

    |m|^(-1) sigma(m, -1) is the exact rational sum over d | m of f(d)/d.
    """
    D = fp.disc.D
    with mpmath.workdps(DIGITS):
        if m == 0:
            return l_value(D, 1) / l_value(D, 2)
        total = sum(Fraction(f, d) for d, f in _weights(fp, m))
        return mpmath.mpf(total.numerator) / total.denominator / l_value(D, 2)


def closed_side(fp: GenusFingerprint, m: int, s: float) -> mpmath.mpf:
    """zeta(s-1) times the sum over d | m of f(d) d^(1-s), over L(s, chi_D);
    zeta(s-1) L(s-1, chi_D) / L(s, chi_D) at m = 0.  s > 2."""
    D = fp.disc.D
    with mpmath.workdps(DIGITS):
        s1 = mpmath.mpf(s) - 1
        if m == 0:
            top = l_value(D, s1)
        else:
            top = mpmath.fsum(f * mpmath.mpf(d) ** -s1 for d, f in _weights(fp, m))
        return mpmath.zeta(s1) * top / l_value(D, s)
