"""Shared fixture builders for the test suite."""

from __future__ import annotations

from fractions import Fraction

from quadrep.arith import is_prime, kronecker, valuation
from quadrep.divisor import disc_decompositions
from quadrep.ideals import (
    FracIdeal,
    GenusFingerprint,
    genus_representatives,
    prime_above,
    ramified_sign,
    unit_ideal,
)
from quadrep.quadfield import Discriminant

VALID_DISCS = (5, 13, 17, 21, 33, 57, 105)


def first_split_prime(disc: Discriminant) -> int:
    p = 2
    while not (is_prime(p) and disc.D % p != 0 and kronecker(disc.D, p) == 1):
        p += 1
    return p


def fixture_ideals(disc: Discriminant) -> list[FracIdeal]:
    """The unit ideal, a split prime, its square, a fractional multiple,

    and one representative per genus fingerprint, deduplicated.
    """
    ids = [unit_ideal(disc)]
    p = first_split_prime(disc)
    prime = prime_above(disc, p)[0].ideal
    ids += [prime, prime * prime, FracIdeal(Fraction(1, 3), prime.prim)]
    ids += genus_representatives(disc)
    seen = set()
    out = []
    for ideal in ids:
        if ideal.key() not in seen:
            seen.add(ideal.key())
            out.append(ideal)
    return out


def ramified_sign_product(fp: GenusFingerprint, d2: int, m: int) -> tuple[int, int]:
    """Both sides of the ramified sign identity for the decomposition D1 * D2.

    Left: the product of ramified_sign over p | D2.  Right, computed without
    it: chi_{D1}(m_{D2}) * chi_{D2}(N * m/m_{D2}).  Returns (left, right);
    the two are provably equal.
    """
    disc = fp.disc
    d1 = _codecomposition(disc, d2)
    lhs = 1
    m_d2 = 1
    chi_d2_norm = 1
    for p in disc.primes:
        if abs(d2) % p != 0:
            continue
        lhs *= ramified_sign(disc, p, m, fp.sign(p))
        m_d2 *= p ** valuation(m, p)
        chi_d2_norm *= fp.sign(p)
    rhs = kronecker(d1, m_d2) * chi_d2_norm * kronecker(d2, m // m_d2)
    return lhs, rhs


def _codecomposition(disc: Discriminant, d2: int) -> int:
    """The cofactor D1 with D = D1 * D2, validating that D2 is admissible."""
    for cand1, cand2 in disc_decompositions(disc):
        if cand2 == d2:
            return cand1
    raise ValueError(f"{d2} is not a discriminant factor of D = {disc.D}")
