"""Reference paths for genus fingerprints and coprimality.

The library reads a fingerprint off the norm form's coefficients A and C
and tests coprimality from the ideal's coordinates.  These are the paths
it replaced, which work through ideal arithmetic instead: valuations by
repeated exact division, a coprime representative built as
(lambda) * ideal^(-1), and the Legendre symbol of its rational norm.
The tests hold the library to them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from quadrep.arith import factorize, is_prime, kronecker, valuation
from quadrep.errors import RepresentativeSearchError
from quadrep.ideals import (
    FracIdeal,
    GenusFingerprint,
    PrimeIdeal,
    prime_above,
    principal_ideal,
)
from quadrep.quadfield import QuadElem


def rational_legendre(x: int | Fraction, p: int) -> int:
    """Legendre symbol of a p-unit rational at an odd prime p.

    x = num/den with val_p(x) = 0 reduces to num * den^(-1) mod p, and the
    symbol is taken of that residue class.  Rejects non-units at p.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"rational_legendre requires an odd prime, got {p}")
    num, den = (x.numerator, x.denominator) if isinstance(x, Fraction) else (x, 1)
    if num == 0 or num % p == 0 or den % p == 0:
        raise ValueError(f"{x} is not a p-unit at p = {p}")
    r = num * pow(den, -1, p) % p
    return kronecker(r, p)


def _is_integral(ideal: FracIdeal) -> bool:
    return ideal.scale.denominator == 1


def ideal_valuation(ideal: FracIdeal, prime: PrimeIdeal) -> int:
    """Exponent of the prime in the ideal's factorization.

    The rational scale contributes through the ramification index; the
    primitive part is peeled off by repeated exact division.
    """
    v = prime.ramification_index() * valuation(ideal.scale, prime.p)
    pinv = prime.ideal.inverse()
    x = FracIdeal(1, ideal.prim)
    while True:
        y = x * pinv
        if not _is_integral(y):
            return v
        x = y
        v += 1


def coprime_by_valuations(ideal: FracIdeal, n: int) -> bool:
    """True when every prime above every prime factor of n has valuation 0."""
    if n == 0:
        raise ValueError("coprimality to 0 is not meaningful")
    if abs(n) == 1:
        return True
    for p, _ in factorize(n):
        for prime in prime_above(ideal.disc, p):
            if ideal_valuation(ideal, prime) != 0:
                return False
    return True


def coprime_genus_representative(
    ideal: FracIdeal, n: int, box: int = 200
) -> FracIdeal:
    """An integral ideal of the same genus, coprime to n*D.

    Searches lambda = x*alpha + y*beta over an expanding coordinate box for
    a totally positive-norm element with N(lambda)/N(ideal) coprime to n*D,
    then returns (lambda) * ideal^(-1).  The search is deterministic; the
    default box is far larger than desk-scale inputs ever need.
    """
    if n == 0:
        raise ValueError("n must be nonzero")
    disc = ideal.disc
    target = abs(n) * disc.D
    A, B, C = ideal.prim.form()

    def q(x: int, y: int) -> int:
        return A * x * x + B * x * y + C * y * y

    for radius in range(1, box + 1):
        shell = []
        for x in range(-radius, radius + 1):
            for y in range(-radius, radius + 1):
                if max(abs(x), abs(y)) == radius:
                    shell.append((x, y))
        for x, y in sorted(shell):
            val = q(x, y)
            if val <= 0 or math.gcd(val, target) != 1:
                continue
            lam = QuadElem(disc, 2 * ideal.prim.a * x + ideal.prim.b * y, y)
            rep = principal_ideal(lam, ideal.scale) * ideal.inverse()
            if not _is_integral(rep):
                raise RepresentativeSearchError(
                    f"representative of {ideal!r} came out non-integral"
                )
            return rep
    raise RepresentativeSearchError(
        f"no element coprime to {target} found in box {box} for {ideal!r}"
    )


def fingerprint_by_representative(ideal: FracIdeal) -> GenusFingerprint:
    """Legendre symbols of the norm, after moving to a coprime representative
    of the same genus whenever the ideal meets a ramified prime."""
    disc = ideal.disc
    rep = ideal
    if not coprime_by_valuations(ideal, disc.D):
        rep = coprime_genus_representative(ideal, 1)
    n: Fraction = rep.norm()
    return GenusFingerprint(disc, tuple(rational_legendre(n, p) for p in disc.primes))
