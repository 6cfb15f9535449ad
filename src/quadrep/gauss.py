"""Quadratic Gauss sums attached to ideal norm forms, carried exactly.

A sum over lambda in ideal/(b*ideal) of e(a*N(lambda)/(b*N(ideal))) is stored
as the integer vector counting how often each exponent t/b occurs; floating
point only enters when a vector or closed form is evaluated to a complex
number for comparison.  Closed forms at prime powers are plain ints: a
"rational" value coeff, or a "ramified" value coeff * eps(p) * sqrt(p)
with coeff an int too (Berndt, Evans and Williams, Gauss and Jacobi Sums,
ch. 1), so no rational type is needed anywhere on this path; the sign of the
latter is `ideals.ramified_sign` of a with the genus fingerprint's sign at
p, times one more (-(D/p) | p) when beta is even, so they hold for every
ideal.  The direct enumeration never calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, gcd, sqrt

import numpy as np

from .arith import eps, is_prime, kronecker, valuation
from .ideals import (
    DEFAULT_MAX_ENUM_B,
    FracIdeal,
    check_enum_bound,
    genus_fingerprint,
    ramified_sign,
    residue_norm_profile,
)


@dataclass(frozen=True)
class ExponentVector:
    """Integer counts: counts[t] copies of e(t/b).

    counts is a length-b tuple of ints, so vectors compare and hash.  A
    vector from a full residue enumeration sums to b^2.
    """

    b: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.b < 1 or len(self.counts) != self.b:
            raise ValueError("counts must have length b >= 1")


@dataclass(frozen=True)
class ExactGaussValue:
    """Closed Gauss sum value.

    kind "rational" means the value is coeff; kind "ramified" means
    coeff * eps(p) * sqrt(p) with p the odd modulus carried alongside.
    Every closed value has an integer coeff, so coeff must be exactly an
    int, not a bool or a rational type: the Gauss-DFT sum stays in ints.
    """

    kind: str
    coeff: int
    p: int | None = None

    def __post_init__(self) -> None:
        if type(self.coeff) is not int:
            raise ValueError(f"coeff must be an int, got {type(self.coeff).__name__}")
        if self.kind not in ("rational", "ramified"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "ramified" and (self.p is None or self.p <= 0 or self.p % 2 == 0):
            raise ValueError("ramified values need an odd positive modulus")

    def as_complex(self) -> complex:
        if self.kind == "rational":
            return complex(self.coeff)
        return complex(self.coeff) * eps(self.p) * sqrt(self.p)


def eval_complex(vec: ExponentVector) -> complex:
    """Evaluate sum counts[t] * e(t/b) in double precision.

    Each part is fsum's correctly rounded sum of the float64 products, so
    no summation order shows: a BLAS dot stalled for 8 ms in some fresh
    processes, and np.sum's order moves sums that cancel by over 1e-12.
    """
    counts = np.asarray(vec.counts, dtype=np.float64)
    e = np.exp(2j * np.pi * np.arange(vec.b) / vec.b)
    return complex(fsum((counts * e.real).tolist()), fsum((counts * e.imag).tolist()))


def gauss_direct(
    ideal: FracIdeal, a: int, b: int, limit: int = DEFAULT_MAX_ENUM_B
) -> ExponentVector:
    """The Gauss sum G_b(ideal, a) by direct residue enumeration.

    counts[t] is the number of lambda in ideal/(b*ideal) whose norm ratio r
    satisfies a*r = t (mod b); the profile enumeration is shared and cached.
    """
    profile = np.asarray(residue_norm_profile(ideal, b, limit), dtype=np.int64)
    counts = np.zeros(b, dtype=np.int64)
    np.add.at(counts, np.arange(b, dtype=np.int64) * (a % b) % b, profile)
    return ExponentVector(b, tuple(counts.tolist()))


def gauss_closed(ideal: FracIdeal, a: int, p: int, beta: int) -> ExactGaussValue:
    """Closed form of G_{p^beta}(ideal, a).

    With alpha = min(val_p(a), beta): the value is p^(2 beta) when
    alpha = beta; (chi_D(p) * p)^(alpha+beta) when p does not divide D; and
    eps(p) * p^(alpha+beta+1/2) * (a0 | p) * s_p * (-D/p | p)^(alpha+beta+1)
    in the ramified case, a0 = a/p^alpha and s_p the genus fingerprint's
    sign at p.  The sum depends on the ideal only through its genus, and
    for an ideal coprime to p that sign is (N(ideal) | p), so every ideal
    has a closed form.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    disc = ideal.disc
    alpha = beta if a == 0 else min(valuation(a, p), beta)
    if alpha == beta:
        return ExactGaussValue("rational", p ** (2 * beta))
    chi = kronecker(disc.D, p)
    if chi != 0:
        return ExactGaussValue("rational", (chi * p) ** (alpha + beta))
    # here alpha = val_p(a) < beta, so ramified_sign carries the power alpha
    sign = ramified_sign(disc, p, a, genus_fingerprint(ideal).sign(p))
    sign *= kronecker(-(disc.D // p), p) ** ((beta + 1) % 2)
    return ExactGaussValue("ramified", sign * p ** (alpha + beta), p)


def classical_gauss(
    a: int, c: int, limit: int = DEFAULT_MAX_ENUM_B
) -> tuple[ExactGaussValue, ExponentVector]:
    """The classical sum over x mod c of e(a x^2 / c), closed and direct.

    For odd c > 0 with gcd(a, c) = 1 the closed value is
    eps(c) * sqrt(c) * (a|c).  The direct side enumerates all c residues, so
    c is held to the same enumeration bound as residue profiles.
    """
    if c <= 0 or c % 2 == 0:
        raise ValueError(f"classical Gauss sum needs odd c > 0, got {c}")
    if gcd(a, c) != 1:
        raise ValueError(f"a = {a} must be coprime to c = {c}")
    check_enum_bound(c, limit)
    closed = ExactGaussValue("ramified", kronecker(a, c), c)
    xs = np.arange(c, dtype=np.int64)
    counts = np.bincount(xs * xs % c * (a % c) % c, minlength=c)
    return closed, ExponentVector(c, tuple(counts.tolist()))
