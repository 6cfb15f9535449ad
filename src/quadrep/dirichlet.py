"""The Dirichlet series of scaled representation numbers and its closed form.

series_lhs sums g_rep(ideal, m, b) b^(-s) over b <= B, with the coefficients
built at once by a multiplicative sieve (series_coefficients) in
O(B log log B) numpy work and O(pi(sqrt B)) Python steps.  series_rhs
evaluates |m|^(-s/2) zeta(s-1) sigma(ideal, m, 1-s) / L(s, chi_D) (the
m = 0 case degenerates to zeta(s-1) L(s-1, chi_D) / L(s, chi_D)) from one
vector n^(-s), n <= B, which the truncated zeta and L sums all reuse.  The
L sums read chi_D(1..B) from one period, a product of Legendre tables
(chi_table), one per ramified prime, tiled to length B.  Both sides converge
for s > 2 and the identity has a simple pole at s = 2 with an explicit
residue, a ratio of L(1, chi_D), L(2, chi_D) and the divisor sum at -1:
residue_at_2 takes both L-values from their finite closed forms over one
period of chi_D when D <= B, and from truncated sums otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import kronecker, primes_upto, valuation
from .divisor import sigma_def, sigma_factor_ramified, sigma_factor_unramified
from .errors import ConsistencyError
from .ideals import FracIdeal, GenusFingerprint, genus_fingerprint, ramified_sign
from .quadfield import Discriminant
from .repnum import rep_count_bruteforce, rep_count_prime_power, unramified_count

DEFAULT_RESIDUE_B = 200_000


@dataclass(frozen=True)
class SeriesEval:
    """A truncated series value with its truncation point and tail bound."""

    value: float
    truncation: int
    tail_bound: float

    def __post_init__(self) -> None:
        if self.tail_bound < 0:
            raise ValueError("tail bound must be nonnegative")


def _zeta_l_factor(p: int, chi: int, q: float) -> float:
    """The local factor (p - chi q)/(p (1 - q)) of zeta(s-1)/L(s, chi_D), q = p^(1-s)."""
    return (p - chi * q) / (p * (1 - q))


def euler_factor_unramified(disc: Discriminant, p: int, m: int, s: float) -> float:
    """Euler factor at p not dividing D, with q = p^(1-s):

        (p - chi q)/(p (1 - q)) * (1 - chi^(nu+1) q^(nu+1))/(1 - chi q),

    the second fraction read as 1/(1 - chi q) when m = 0.
    """
    if not s > 1:
        raise ValueError(f"factor needs s > 1, got {s}")
    if disc.D % p == 0:
        raise ValueError(f"{p} ramifies in D = {disc.D}")
    chi = kronecker(disc.D, p)
    q = float(p) ** (1 - s)
    first = _zeta_l_factor(p, chi, q)
    t = chi * q
    if m == 0:
        return first / (1 - t)
    nu = valuation(m, p)
    return first * (1 - t ** (nu + 1)) / (1 - t)


def euler_factor_ramified(
    disc: Discriminant, p: int, m: int, na_sign: int, s: float
) -> float:
    """Euler factor at p | D: (1 + sigma q^nu)/(1 - q) with q = p^(1-s) and

    sigma = ramified_sign(disc, p, m, na_sign) and nu = val_p(m); for m = 0
    the sigma term drops and the factor is 1/(1 - q).
    """
    if not s > 1:
        raise ValueError(f"factor needs s > 1, got {s}")
    if disc.D % p != 0:
        raise ValueError(f"{p} does not ramify in D = {disc.D}")
    if na_sign not in (-1, 1):
        raise ValueError(f"na_sign must be -1 or 1, got {na_sign}")
    q = float(p) ** (1 - s)
    if m == 0:
        return 1 / (1 - q)
    sig = ramified_sign(disc, p, m, na_sign)
    return (1 + sig * q ** valuation(m, p)) / (1 - q)


def zeta_truncated(s: float, B: int) -> SeriesEval:
    """Partial sum of zeta(s) to B terms; tail bounded by the integral test."""
    if not s > 1:
        raise ValueError(f"zeta truncation needs s > 1, got {s}")
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    ns = np.arange(1, B + 1, dtype=np.float64)
    value = float(np.sum(ns ** (-s)))
    return SeriesEval(value, B, B ** (1 - s) / (s - 1))


def _legendre_table(q: int) -> np.ndarray:
    """(k | q) for k = 0..q-1 at an odd prime q, as int8, from the squares mod q."""
    table = np.full(q, -1, dtype=np.int8)
    x = np.arange(1, q // 2 + 1, dtype=np.int64)
    table[x * x % q] = 1
    table[0] = 0
    return table


def chi_table(disc: Discriminant, n: int | None = None) -> np.ndarray:
    """chi_D(k) for k = 0..min(n, D)-1 as int8; by default the whole period D.

    For D = 1 (mod 4) squarefree, chi_D(k) is the Jacobi symbol (k | D), the
    product of the Legendre symbols (k | q) over the primes q | D.  Each
    Legendre table costs O(q) numpy work and is tiled and cut to the
    length asked for, instead of one kronecker call per entry.
    """
    n = disc.D if n is None else min(n, disc.D)
    chi = np.ones(n, dtype=np.int8)
    for q in disc.primes:
        chi *= np.tile(_legendre_table(q), -(-n // q))[:n]
    return chi


def _chi_upto(disc: Discriminant, B: int) -> np.ndarray:
    """chi_D(n) for n = 0..B as int8: one period from chi_table, tiled."""
    period = chi_table(disc, B + 1)
    return np.tile(period, -(-(B + 1) // period.size))[: B + 1]


def _l1_closed(chi: np.ndarray) -> float:
    """L(1, chi_D) = -D^(-1/2) sum over 0 < a < D of chi(a) log sin(pi a/D).

    `chi` is one full period of chi_D (Davenport, Multiplicative Number
    Theory, ch. 1 and 6).  chi_D is even, so chi(D - a) = chi(a) folds the
    sum onto a < D/2; D is odd, so no middle term is left over.  The sum
    is np.sum's pairwise float64 sum, not np.dot: with OpenBLAS on its
    default threads, the dot took 8 ms from about 3 * 10^4 terms on a
    2-core Intel Xeon, against 0.1 ms for np.sum.
    """
    D = chi.size
    half = (D + 1) // 2
    logs = np.log(np.sin(np.arange(1, half) * (math.pi / D)))
    logs *= chi[1:half]
    return -2.0 * float(np.sum(logs)) / math.sqrt(D)


def _l2_closed(chi: np.ndarray) -> float:
    """L(2, chi_D) = pi^2 D^(-5/2) sum over 0 < a < D of chi(a) a^2.

    `chi` is one full period of chi_D (Washington, Introduction to
    Cyclotomic Fields, 4.1).  The integer sum is exact: int64 dot products
    over blocks short enough that no partial sum reaches 2^63, added as
    Python ints; below D of about 2 * 10^6 that is a single block.
    """
    D = chi.size
    a = np.arange(D, dtype=np.int64)
    squares, weights = a * a, chi.astype(np.int64)
    step = (2**63 - 1) // (D * D)
    total = sum(
        int(np.dot(weights[i : i + step], squares[i : i + step]))
        for i in range(0, D, step)
    )
    return math.pi**2 * total / (D * D * math.sqrt(D))


def l_truncated(disc: Discriminant, s: float, B: int) -> SeriesEval:
    """Partial sum of L(s, chi_D); Abel summation bounds the tail by D * B^(-s).

    The character's partial sums are bounded by its period D, which covers
    every s > 0.  residue_at_2 calls it at s = 1 and 2 only when D > B,
    where the bound at s = 1, D/B, exceeds 1 and certifies nothing.  No
    tail is added back here: the signed tail oscillates around zero, so the
    partial sum is already the best estimate.  chi_table builds only the
    min(D, B + 1) entries of one period, tiled to length B + 1.
    """
    if not s > 0:
        raise ValueError(f"L truncation needs s > 0, got {s}")
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    terms = np.arange(1, B + 1, dtype=np.float64)
    terms **= -s
    terms *= _chi_upto(disc, B)[1:]
    return SeriesEval(float(np.sum(terms)), B, disc.D * float(B) ** (-s))


def _prime_divisors(m: int, primes: np.ndarray) -> set[int]:
    """The entries of `primes` that divide m != 0, for m of any size."""
    m = abs(m)
    residues = m % (primes if m < 2**63 else primes.astype(object))
    return set(primes[residues == 0].tolist())


def _unramified_product(disc: Discriminant, m: int, B: int) -> np.ndarray:
    """Product of the closed counts at p^e || b over unramified p, b = 0..B.

    Away from the primes dividing m the count at p^e depends only on
    chi_D(p), e and whether m = 0 (unramified_count); at p | m it comes
    from rep_count_prime_power.  Primes up to sqrt(B) multiply their
    multiples one prime at a time.  A larger prime divides each b <= B at
    most once and b has at most one of them, so the multiples k p <= B of
    distinct large primes never coincide: they are applied through one
    flat index of them all, in chunks of about B/8 entries.  Every entry
    is at most b d(b), far inside int64.
    """
    primes = primes_upto(B)
    chi = _chi_upto(disc, B)[primes]
    primes, chi = primes[chi != 0], chi[chi != 0]
    divides_m = _prime_divisors(m, primes) if m else set()

    def count(p: int, c: int, e: int) -> int:
        if p in divides_m:
            return rep_count_prime_power(disc, p, e, m)
        return unramified_count(c, p, e, e if m == 0 else 0)

    counts = np.ones(B + 1, dtype=np.int64)
    n_small = int(np.searchsorted(primes, math.isqrt(B), side="right"))
    for p, c in zip(primes[:n_small].tolist(), chi[:n_small].tolist()):
        # entry k - 1 stands for b = k p; p^e divides b iff p^(e-1) divides k
        local = np.full(B // p, count(p, c, 1), dtype=np.int64)
        pe, e = p, 2
        while pe * p <= B:
            local[pe - 1 :: pe] = count(p, c, e)
            pe, e = pe * p, e + 1
        counts[p::p] *= local
    big, big_chi = primes[n_small:], chi[n_small:]
    if not big.size:
        return counts
    nu = 1 if m == 0 else 0
    first = np.where(
        big_chi == 1, unramified_count(1, big, 1, nu), unramified_count(-1, big, 1, nu)
    )
    for i in np.flatnonzero(np.isin(big, list(divides_m))):
        first[i] = rep_count_prime_power(disc, int(big[i]), 1, m)
    mult, step = B // big, max(B // 8, 1)
    ends = np.cumsum(mult)
    # a chunk may be empty when one prime's multiples outnumber B/8 (B < 64)
    bounds = np.searchsorted(ends, np.arange(0, ends[-1] + step, step), side="right")
    bounds = bounds.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        p, k = big[lo:hi], mult[lo:hi]
        # p repeated k times, each run's first entry less the last multiple
        # of the run before: the running sum steps through p, 2p, ..., kp
        idx = np.repeat(p, k)
        idx[np.cumsum(k[:-1])] -= k[:-1] * p[:-1]
        np.cumsum(idx, out=idx)
        counts[idx] *= np.repeat(first[lo:hi], k)
    return counts


def series_coefficients(
    ideal: FracIdeal, m: int, B: int, oracle: bool = False, limit: int | None = None
) -> np.ndarray:
    """g_rep(ideal, m, b) for b = 1..B (entry b - 1), by a multiplicative sieve.

    The count at modulus b*D is the product of the closed prime-power
    counts over p^e || b*D, where a ramified p enters with exponent
    val_p(b) + 1: _unramified_product builds the unramified part for every
    b at once, and each ramified p contributes one array of its few counts
    from rep_count_prime_power.  Where a count could pass 2^63 the
    products are taken in exact Python integers.  Every count must be
    divisible by D, else ConsistencyError; with oracle=True the counts for
    b <= 60 are also cross-checked against brute-force enumeration, whose
    moduli `limit` bounds as in residue_norm_profile.
    """
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    disc = ideal.disc
    D = disc.D
    fp = genus_fingerprint(ideal)
    # ramified p: the counts at p^(e+1) for every e = val_p(b) with p^e <= B
    ramified = {}
    for p in disc.primes:
        r, pe = [], 1
        while pe <= B:
            r.append(rep_count_prime_power(disc, p, len(r) + 1, m, fp.sign(p)))
            pe *= p
        ramified[p] = r
    if all(r[0] for r in ramified.values()):
        counts = _unramified_product(disc, m, B)
        # every closed count at p^e is at most (e + 1) p^e, and at most
        # 2 p^e when p ramifies, so a count is at most 2^omega D b d(b)
        if 2 ** (disc.omega + 1) * D * B * (math.isqrt(B) + 1) >= 2**63:
            counts = counts.astype(object)
        for p, r in ramified.items():
            factor = np.full(B + 1, r[0], dtype=np.int64)
            for e in range(1, len(r)):
                factor[p**e :: p**e] = r[e]
            counts *= factor
    else:
        # some ramified factor vanishes for every exponent >= 1 (the sign
        # obstruction depends only on val_p(m)), so every count is zero
        counts = np.zeros(B + 1, dtype=np.int64)
    counts = counts[1:]
    if oracle:
        for b in range(1, min(B, 60) + 1):
            brute = rep_count_bruteforce(ideal, m, b * D, limit)
            if brute != counts[b - 1]:
                raise ConsistencyError(
                    f"closed count {counts[b - 1]} != enumeration {brute} "
                    f"at modulus {b}*{D}"
                )
    bad = np.flatnonzero(counts % D)
    if bad.size:
        b = int(bad[0]) + 1
        raise ConsistencyError(
            f"count {counts[b - 1]} at modulus {b}*{D} is not divisible by {D}"
        )
    counts //= D
    return counts.astype(np.int64, copy=False)


def series_lhs(
    ideal: FracIdeal, m: int, s: float, B: int,
    oracle: bool = False, limit: int | None = None,
) -> SeriesEval:
    """Partial sum over b <= B of g_rep(ideal, m, b) b^(-s).

    The coefficients come from series_coefficients, near-linear numpy work
    in B, and are summed with numpy.  With oracle=True the counts for
    b <= 60 are cross-checked against brute-force enumeration (moduli
    bounded by `limit`) and any disagreement raises ConsistencyError.
    """
    if not s > 2:
        raise ValueError(f"series needs s > 2, got {s}")
    g = series_coefficients(ideal, m, B, oracle, limit)
    if not g[0]:
        # g(1) vanishes only with a ramified factor, and then every term does
        return SeriesEval(0.0, B, 0.0)
    omega = ideal.disc.omega
    tail = 4 * 2**omega * float(B) ** (2 - s) * (1 + math.log(B)) / (s - 2)
    terms = np.arange(1, B + 1, dtype=np.float64)
    np.power(terms, -s, out=terms)
    terms *= g
    return SeriesEval(float(np.sum(terms)), B, tail)


def series_rhs(fp: GenusFingerprint, m: int, s: float, B: int) -> float:
    """The closed side: |m|^(-s/2) zeta(s-1) sigma(m, 1-s) / L(s, chi_D),

    degenerating to zeta(s-1) L(s-1, chi_D) / L(s, chi_D) at m = 0.  Their
    partial sums over n <= B are those of n w, chi w and chi n w, w = n^(-s).
    """
    if not s > 2:
        raise ValueError(f"series needs s > 2, got {s}")
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    chi = _chi_upto(fp.disc, B)[1:]
    n = np.arange(1, B + 1, dtype=np.float64)
    w = np.power(n, -s)
    n *= w
    # n^(1-s) is positive and decreasing, so the tail past B is the integral
    # B^(2-s)/(s-2) up to B^(1-s)/2; adding it sharpens the partial sum by a
    # factor of about B near s = 2, which the residue probe there relies on.
    z = float(np.sum(n)) + float(B) ** (2 - s) / (s - 2)
    w *= chi
    l_s = float(np.sum(w))
    if m == 0:
        n *= chi
        return z * float(np.sum(n)) / l_s
    return abs(m) ** (-s / 2) * z * sigma_def(fp, m, 1 - s) / l_s


def residue_at_2(fp: GenusFingerprint, m: int, B: int = DEFAULT_RESIDUE_B) -> float:
    """Residue of the series at its simple pole s = 2.

    For m != 0 this is |m|^(-1) sigma(m, -1) / L(2, chi_D), and 0.0 at once
    when the divisor sum vanishes; for m = 0 it is L(1, chi_D) / L(2, chi_D).
    When D <= B both L-values come from their closed forms over one period
    of chi_D (_l1_closed, _l2_closed): O(D) work, correct to rounding
    (about 1e-16 relative at D <= 4389).  Otherwise they are partial sums
    to B terms (l_truncated), whose error is not reported: at the default
    B and D = 48,612,265, L(1) is off by about 1.5e-3 (3.5e-4 relative).
    """
    if m:
        sigma = sigma_def(fp, m, -1.0)
        if sigma == 0.0:
            return 0.0
    disc = fp.disc
    closed = disc.D <= B
    chi = chi_table(disc) if closed else None
    l2 = _l2_closed(chi) if closed else l_truncated(disc, 2, B).value
    if m == 0:
        return (_l1_closed(chi) if closed else l_truncated(disc, 1, B).value) / l2
    return sigma / (abs(m) * l2)


@dataclass(frozen=True)
class FactorCheck:
    """One prime's Euler factor on each side of the identity."""

    p: int
    lhs: float
    rhs: float
    ok: bool


@dataclass(frozen=True)
class TheoremReport:
    lhs: SeriesEval
    rhs: float
    factors: tuple[FactorCheck, ...]
    tol: float
    abs_err: float
    passed: bool


def verify_theorem(
    ideal: FracIdeal, m: int, s: float, B: int, tol: float = 1e-3
) -> TheoremReport:
    """Compare both sides of the series identity, globally and factor by factor.

    The global check is |lhs - rhs| <= tol * max(1, |rhs|).  For each prime
    p <= 50 the Euler factor of the representation series is compared against
    the matching local factor of the closed side, assembled independently
    from the divisor sum's factors at the reflected argument 1 - s.
    """
    disc = ideal.disc
    fp = genus_fingerprint(ideal)
    lhs = series_lhs(ideal, m, s, B)
    rhs = series_rhs(fp, m, s, B)
    factors = []
    for p in primes_upto(50).tolist():
        q = float(p) ** (1 - s)
        chi = kronecker(disc.D, p)
        if disc.D % p == 0:
            lf = euler_factor_ramified(disc, p, m, fp.sign(p), s)
            sig = 1.0 if m == 0 else sigma_factor_ramified(fp, m, p, 1 - s)
            rf = sig / (1 - q)
        else:
            lf = euler_factor_unramified(disc, p, m, s)
            zl = _zeta_l_factor(p, chi, q)
            sig = (
                1 / (1 - chi * q)
                if m == 0
                else sigma_factor_unramified(disc, m, p, 1 - s)
            )
            rf = zl * sig
        factors.append(
            FactorCheck(p, lf, rf, abs(lf - rf) <= tol * max(1.0, abs(rf)))
        )
    err = abs(lhs.value - rhs)
    passed = err <= tol * max(1.0, abs(rhs)) and all(f.ok for f in factors)
    return TheoremReport(lhs, rhs, tuple(factors), tol, err, passed)
