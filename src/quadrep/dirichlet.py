"""The Dirichlet series of scaled representation numbers and its closed form.

series_lhs sums g_rep(ideal, m, b) b^(-s) over b <= B, with the coefficients
built at once by a multiplicative sieve (series_coefficients) in
O(B log log B) numpy work and O(pi(sqrt B)) Python steps.  Each ramified
count at p^(e+1) is divided by p as it is computed, so D leaves the counts
prime by prime and the sieve's int64 array holds g itself.  series_rhs
evaluates |m|^(-s/2) zeta(s-1) sigma(ideal, m, 1-s) / L(s, chi_D) (the
m = 0 case degenerates to zeta(s-1) L(s-1, chi_D) / L(s, chi_D)) from one
vector n^(-s), n <= B, which the truncated zeta and L sums all reuse.  The
L sums read chi_D(1..B) from one period, a product of Legendre symbols
(chi_table), one per ramified prime, tiled to length B.

verify_theorem checks the identity exactly on the coefficients at every
prime and prime power up to B, then holds the float sums to a budget
certified from the bounds stated in this module (Davenport, Multiplicative
Number Theory, ch. 1 and 6).  It builds chi_D(0..B), the primes and n^(-s)
once for both sides.  Both sides converge for s > 2 and the identity has a
simple pole at s = 2 with an explicit residue, a ratio of L(1, chi_D),
L(2, chi_D) and the divisor sum at -1: residue_at_2 takes both L-values
from their finite closed forms over one period of chi_D when
D <= DEFAULT_RESIDUE_B, and from truncated sums otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import is_prime, kronecker, primes_upto, valuation
from .divisor import _weight, sigma_def
from .errors import ConsistencyError
from .ideals import (
    DEFAULT_MAX_ENUM_B,
    FracIdeal,
    GenusFingerprint,
    genus_fingerprint,
    ramified_sign,
)
from .quadfield import Discriminant
from .repnum import rep_count_bruteforce, rep_count_prime_power, unramified_count

DEFAULT_RESIDUE_B = 200_000
# check_coefficients holds g(b) against brute force for b <= min(B, CHECK_B)
CHECK_B = 60
# the large-prime index runs in chunks of max(B/8, _CHUNK) entries: one
# chunk below B = 2^18, and about one byte per term a chunk above it
_CHUNK = 2**15
# elementwise passes that need a temporary run in blocks of _BLOCK
# entries, so that the temporary stays at 32 KiB whatever B is
_BLOCK = 2**12


@dataclass(frozen=True)
class SeriesEval:
    """A truncated series value with its truncation point and tail bound."""

    value: float
    truncation: int
    tail_bound: float

    def __post_init__(self) -> None:
        if self.tail_bound < 0:
            raise ValueError("tail bound must be nonnegative")


def euler_factor(fp: GenusFingerprint, m: int, p: int, s: float) -> float:
    """The Euler factor at p of the representation side, q = p^(1-s):

        (p - chi q)/(p (1 - q)) * (1 - (chi q)^(nu+1))/(1 - chi q)

    with chi = chi_D(p) and nu = val_p(m), the second fraction read as
    1/(1 - chi q) when m = 0.  At a ramified p chi = 0 makes the first
    fraction 1/(1 - q) and the second 1, to which m != 0 adds
    ramified_sign * q^nu, the sign taken from the fingerprint.
    """
    if not s > 1:
        raise ValueError(f"factor needs s > 1, got {s}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    q = float(p) ** (1 - s)
    chi = kronecker(fp.disc.D, p)
    first = (p - chi * q) / (p * (1 - q))
    t = chi * q
    if m == 0:
        return first / (1 - t)
    nu = valuation(m, p)
    if chi == 0:
        return first * (1 + ramified_sign(fp.disc, p, m, fp.sign(p)) * q**nu)
    return first * (1 - t ** (nu + 1)) / (1 - t)


def zeta_truncated(s: float, B: int) -> SeriesEval:
    """Partial sum of zeta(s) to B terms; tail bounded by the integral test."""
    if not s > 1:
        raise ValueError(f"zeta truncation needs s > 1, got {s}")
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    return SeriesEval(float(np.sum(_powers(s, B))), B, B ** (1 - s) / (s - 1))


def _legendre_upto(q: int, n: int) -> np.ndarray:
    """(k | q) for k = 0..n-1 at an odd prime q, as int8.

    For q <= 64 n the whole table mod q comes from the squares mod q, O(q)
    numpy work, and is tiled and cut to n.  Otherwise the symbol is built
    as a completely multiplicative function of k < n: from ones with entry
    0 set to 0, each prime r < n with (r | q) = -1 negates the multiples of
    r, r^2, ..., which costs O(n log log n) numpy work and one kronecker
    call per prime below n, whatever q is.
    """
    if q <= 64 * n:
        table = np.full(q, -1, dtype=np.int8)
        x = np.arange(1, q // 2 + 1, dtype=np.int64)
        table[x * x % q] = 1
        table[0] = 0
        return np.tile(table, -(-n // q))[:n]
    chi = np.ones(n, dtype=np.int8)
    chi[:1] = 0
    for r in primes_upto(n - 1).tolist():
        if kronecker(r, q) == -1:
            rk = r
            while rk < n:
                chi[rk::rk] *= -1
                rk *= r
    return chi


def chi_table(disc: Discriminant, n: int | None = None) -> np.ndarray:
    """chi_D(k) for k = 0..min(n, D)-1 as int8; by default the whole period D.

    For D = 1 (mod 4) squarefree, chi_D(k) is the Jacobi symbol (k | D), the
    product of the Legendre symbols (k | q) over the primes q | D, each
    from _legendre_upto instead of one kronecker call per entry.
    """
    n = disc.D if n is None else min(n, disc.D)
    chi = np.ones(n, dtype=np.int8)
    for q in disc.primes:
        chi *= _legendre_upto(q, n)
    return chi


def _chi_upto(disc: Discriminant, B: int) -> np.ndarray:
    """chi_D(n) for n = 0..B as int8: one period from chi_table, tiled."""
    period = chi_table(disc, B + 1)
    if period.size > B:
        return period
    return np.tile(period, -(-(B + 1) // period.size))[: B + 1]


def _powers(s: float, B: int) -> np.ndarray:
    """n^(-s) for n = 1..B as float64."""
    w = np.arange(1, B + 1, dtype=np.float64)
    return np.power(w, -s, out=w)


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
    logs = np.arange(1, half, dtype=np.float64)
    logs *= math.pi / D
    np.sin(logs, out=logs)
    np.log(logs, out=logs)
    logs *= chi[1:half]
    return -2.0 * float(np.sum(logs)) / math.sqrt(D)


def _l2_closed(chi: np.ndarray) -> float:
    """L(2, chi_D) = pi^2 D^(-5/2) sum over 0 < a < D of chi(a) a^2.

    `chi` is one full period of chi_D (Washington, Introduction to
    Cyclotomic Fields, 4.1).  The integer sum is exact: the terms chi(a) a^2
    are formed in one int64 buffer and summed over blocks short enough that
    no partial sum reaches 2^63, added as Python ints; below D of about
    2 * 10^6 that is a single block.
    """
    D = chi.size
    terms = np.arange(D, dtype=np.int64)
    terms *= terms
    terms *= chi
    step = (2**63 - 1) // (D * D)
    total = sum(int(np.sum(terms[i : i + step])) for i in range(0, D, step))
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
    terms = _powers(s, B)
    terms *= _chi_upto(disc, B)[1:]
    return SeriesEval(float(np.sum(terms)), B, disc.D * float(B) ** (-s))


def _prime_divisors(m: int, primes: np.ndarray) -> set[int]:
    """The entries of `primes` that divide m != 0, for m of any size."""
    m = abs(m)
    residues = m % (primes if m < 2**63 else primes.astype(object))
    return set(primes[residues == 0].tolist())


def _by_valuation(out: np.ndarray, p: int, values: list[int]) -> np.ndarray:
    """Fill out[k - 1] with values[val_p(k)] for k = 1..out.size; return out.

    As val_p(k p) = val_p(k) + 1, values[e - 1] = the count at p^e puts the
    count at p^e || b in entry k - 1 for every multiple b = k p.
    """
    out[:] = values[0]
    pe = p
    for v in values[1:]:
        out[pe - 1 :: pe] = v
        pe *= p
    return out


def _unramified_product(
    disc: Discriminant, m: int, B: int, chi: np.ndarray, primes: np.ndarray, fill: int
) -> np.ndarray:
    """fill times the closed counts at p^e || b over unramified p, b = 0..B.

    `chi` holds chi_D(0..B) and `primes` the primes up to B.  Away from
    the primes dividing m the count at p^e depends only on chi_D(p), e and
    whether m = 0 (unramified_count); at p | m it comes from
    rep_count_prime_power.  Primes up to sqrt(B)
    multiply their multiples one prime at a time.  A larger prime divides
    each b <= B at most once and b has at most one of them, so the
    multiples k p <= B of distinct large primes never coincide: they are
    applied through one flat index of them all, in chunks of about
    max(B/8, 2^15) entries, so B < 2^18 takes a single chunk.  Every
    product is at most b d(b); the caller's bound on B keeps fill times
    that inside int64.
    """
    chi = chi[primes]
    primes, chi = primes[chi != 0], chi[chi != 0]
    divides_m = _prime_divisors(m, primes) if m else set()

    def count(p: int, c: int, e: int) -> int:
        if p in divides_m:
            return rep_count_prime_power(disc, p, e, m)
        return unramified_count(c, p, e, e if m == 0 else 0)

    counts = np.full(B + 1, fill, dtype=np.int64)
    root = math.isqrt(B)
    n_small = int(np.searchsorted(primes, root, side="right"))
    # one buffer holds each small prime's counts at its multiples in turn
    buf = np.empty(B // 2, dtype=np.int64)
    for p, c in zip(primes[:n_small].tolist(), chi[:n_small].tolist()):
        values, pe = [], p
        while pe <= B:
            values.append(count(p, c, len(values) + 1))
            pe *= p
        counts[p::p] *= _by_valuation(buf[: B // p], p, values)
    del buf  # room for the large-prime index
    big, big_chi = primes[n_small:], chi[n_small:]
    if not big.size:
        return counts
    nu = 1 if m == 0 else 0
    first = np.where(
        big_chi == 1, unramified_count(1, big, 1, nu), unramified_count(-1, big, 1, nu)
    )
    for p in divides_m:
        if p > root:
            first[np.searchsorted(big, p)] = rep_count_prime_power(disc, p, 1, m)
    mult, step = B // big, max(B // 8, _CHUNK)
    ends = np.cumsum(mult)
    bounds = np.searchsorted(ends, np.arange(0, ends[-1] + step, step), side="right")
    bounds = bounds.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        k = mult[lo:hi]
        # flat position less its run's start counts 1, 2, ..., k in each
        # run; times the run's prime it steps through p, 2p, ..., kp
        starts = ends[lo:hi] - k
        idx = np.arange(starts[0] + 1, ends[hi - 1] + 1)
        idx -= np.repeat(starts, k)
        idx *= np.repeat(big[lo:hi], k)
        counts[idx] *= np.repeat(first[lo:hi], k)
    return counts


def series_coefficients(ideal: FracIdeal, m: int, B: int) -> np.ndarray:
    """g_rep(ideal, m, b) for b = 1..B (entry b - 1), by a multiplicative sieve.

    The count at modulus b*D is the product of the closed prime-power
    counts over p^e || b*D, where a ramified p enters with exponent
    val_p(b) + 1.  D is squarefree, so g(b) is that product with each
    ramified count divided by its p: every ramified count must be
    divisible by p, else ConsistencyError.  _unramified_product builds the
    unramified part for every b at once, starting from the product of the
    ramified quotients at p, and each ramified p then swaps in its
    quotients at higher powers on its multiples.  g(b) < 2^(omega+1)
    B^(3/2), and a B that could pass 2^63 is a ValueError.
    check_coefficients holds the first 60 against brute-force enumeration.
    """
    return _coefficients(ideal, m, B, None, None)


def _coefficients(
    ideal: FracIdeal, m: int, B: int, chi: np.ndarray | None, primes: np.ndarray | None
) -> np.ndarray:
    """series_coefficients, given chi_D(0..B) and the primes up to B or None."""
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    disc = ideal.disc
    # a closed count at p^e is at most (e + 1) p^e, and at most 2 p^e when p
    # ramifies, so g(b) <= 2^omega b d(b) < 2^(omega+1) B^(3/2) bounds every
    # product the sieve forms
    if 2 ** (disc.omega + 1) * B * (math.isqrt(B) + 1) >= 2**63:
        raise ValueError(f"B = {B} could take a coefficient past int64")
    fp = genus_fingerprint(ideal)
    # ramified p: the counts at p^(e+1) for every e = val_p(b) with p^e <= B,
    # divided by p, so that their products over p | D are divided by D
    ramified = {}
    for p in disc.primes:
        r, pe = [], 1
        while pe <= B:
            count = rep_count_prime_power(disc, p, len(r) + 1, m, fp.sign(p))
            if count % p:
                raise ConsistencyError(
                    f"closed count {count} at {p}^{len(r) + 1} is not divisible by {p}"
                )
            r.append(count // p)
            pe *= p
        ramified[p] = r
    nonzero = all(r[0] for r in ramified.values())
    if nonzero:
        g = _unramified_product(
            disc, m, B,
            _chi_upto(disc, B) if chi is None else chi,
            primes_upto(B) if primes is None else primes,
            math.prod(r[0] for r in ramified.values()),
        )
        for p, r in ramified.items():
            if len(r) > 1:
                # on b = k p the fill's r[0] gives way to r[val_p(b)]; r[0]
                # divides the entry exactly, as nothing has divided it out
                view = g[p::p]
                view //= r[0]
                view *= _by_valuation(np.empty(B // p, np.int64), p, r[1:])
        g = g[1:]
    else:
        # some ramified factor vanishes for every exponent >= 1 (the sign
        # obstruction depends only on val_p(m)), so every coefficient is zero
        g = np.zeros(B, dtype=np.int64)
    return g


def check_coefficients(
    ideal: FracIdeal, m: int, B: int, limit: int = DEFAULT_MAX_ENUM_B
) -> None:
    """Hold D g(b) for b <= min(B, CHECK_B) against brute-force enumeration.

    The coefficients come from series_coefficients and the counts at b*D
    from rep_count_bruteforce, whose moduli `limit` bounds as in
    residue_norm_profile; a disagreement raises ConsistencyError.
    """
    D = ideal.disc.D
    for b, g in enumerate(series_coefficients(ideal, m, min(B, CHECK_B)).tolist(), 1):
        brute = rep_count_bruteforce(ideal, m, b * D, limit)
        if brute != D * g:
            raise ConsistencyError(
                f"closed count {D * g} != enumeration {brute} at modulus {b}*{D}"
            )


def _check_series_args(s: float, B: int) -> None:
    """The domain of both sides: s > 2 and B >= 1."""
    if not s > 2:
        raise ValueError(f"series needs s > 2, got {s}")
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")


def series_lhs(ideal: FracIdeal, m: int, s: float, B: int) -> SeriesEval:
    """Partial sum over b <= B of g_rep(ideal, m, b) b^(-s).

    The coefficients come from series_coefficients, near-linear numpy work
    in B, and are summed with numpy.
    """
    _check_series_args(s, B)
    g = series_coefficients(ideal, m, B)
    return _lhs_sum(ideal.disc.omega, g, s, B, None)


def _lhs_sum(
    omega: int, g: np.ndarray, s: float, B: int, w: np.ndarray | None
) -> SeriesEval:
    """The partial sum of g(b) w(b), w = n^(-s) (built here if None).

    The products are written into g's buffer, so g is consumed and w kept.
    """
    if not g[0]:
        # g(1) vanishes only with a ramified factor, and then every term does
        return SeriesEval(0.0, B, 0.0)
    tail = 4 * 2**omega * float(B) ** (2 - s) * (1 + math.log(B)) / (s - 2)
    w = _powers(s, B) if w is None else w
    # numpy copies an input that overlaps the output under another dtype,
    # so the int64 g is turned into float64 products a block at a time
    terms = g.view(np.float64)
    for i in range(0, B, _BLOCK):
        j = i + _BLOCK
        np.multiply(w[i:j], g[i:j], out=terms[i:j])
    return SeriesEval(float(np.sum(terms)), B, tail)


def series_rhs(fp: GenusFingerprint, m: int, s: float, B: int) -> float:
    """The closed side: |m|^(-s/2) zeta(s-1) sigma(m, 1-s) / L(s, chi_D),

    degenerating to zeta(s-1) L(s-1, chi_D) / L(s, chi_D) at m = 0.  Their
    partial sums over n <= B are those of n w, chi w and chi n w, w = n^(-s).
    When the divisor sum vanishes the side is 0.0 and no sum is formed.
    """
    _check_series_args(s, B)
    sigma = sigma_def(fp, m, 1 - s) if m else None
    if sigma == 0.0:
        return 0.0
    n = np.arange(1, B + 1, dtype=np.float64)
    return _rhs_sum(_chi_upto(fp.disc, B), n, np.power(n, -s), m, sigma, s, B)


def _rhs_sum(
    chi: np.ndarray, n: np.ndarray, w: np.ndarray,
    m: int, sigma: float | None, s: float, B: int,
) -> float:
    """series_rhs from chi = chi_D(0..B), n = 1..B, w = n^(-s), sigma(m, 1-s).

    n and w are consumed: they end up holding n w (chi n w at m = 0) and chi w.
    """
    chi = chi[1:]
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
    return abs(m) ** (-s / 2) * z * sigma / l_s


def residue_at_2(fp: GenusFingerprint, m: int) -> float:
    """Residue of the series at its simple pole s = 2.

    For m != 0 this is |m|^(-1) sigma(m, -1) / L(2, chi_D), and 0.0 at once
    when the divisor sum vanishes; for m = 0 it is L(1, chi_D) / L(2, chi_D).
    When D <= B = DEFAULT_RESIDUE_B both L-values come from their closed
    forms over one period of chi_D (_l1_closed, _l2_closed): O(D) work,
    correct to rounding (about 1e-16 relative at D <= 4389).  Otherwise they
    are partial sums to B terms (l_truncated), whose error is not reported:
    at D = 48,612,265, L(1) is off by about 1.5e-3 (3.5e-4 relative).
    """
    if m:
        sigma = sigma_def(fp, m, -1.0)
        if sigma == 0.0:
            return 0.0
    disc, B = fp.disc, DEFAULT_RESIDUE_B
    closed = disc.D <= B
    chi = chi_table(disc) if closed else None
    l2 = _l2_closed(chi) if closed else l_truncated(disc, 2, B).value
    if m == 0:
        return (_l1_closed(chi) if closed else l_truncated(disc, 1, B).value) / l2
    return sigma / (abs(m) * l2)


@dataclass(frozen=True)
class TheoremReport:
    """Both sides, |lhs - rhs| and its certified budget, and the first exact
    mismatch (n, (chi_D * g)(n), n W(n)) of _identity_mismatch, or None."""

    lhs: SeriesEval
    rhs: float
    budget: float
    abs_err: float
    mismatch: tuple[int, int, int] | None
    passed: bool


def _identity_mismatch(
    fp: GenusFingerprint, m: int, g: np.ndarray,
    chi: np.ndarray | None, primes: np.ndarray | None,
) -> tuple[int, int, int] | None:
    """The least checked n where g = g(1..B) breaks the identity, or None.

    Times L(s, chi_D) the identity reads (chi_D * g)(n) = n W(n) for all n,
    W(n) the sum of f(d) (divisor._weight) over d | gcd(n, m), or of chi_D(d)
    over d | n at m = 0.  It is checked at n = 1, at every prime p <= B as
    one vector and at every p^e <= B with p <= sqrt(B).  When the divisor
    sum vanishes (chi is None) so does every f(d), and then every g(n).
    """
    if chi is None:
        n = np.flatnonzero(g)[:1].tolist()
        return (n[0] + 1, int(g[n[0]]), 0) if n else None
    f1 = _weight(fp, m, 1) if m else 1
    found = [] if g[0] == f1 else [(1, int(g[0]), f1)]
    c = chi[primes].astype(np.int64)
    conv = g[primes - 1] + c * g[0]
    side = primes * (f1 + (0 if m else c))
    for p in _prime_divisors(m, primes) if m else ():
        side[np.searchsorted(primes, p)] += p * _weight(fp, m, p)
    for i in np.flatnonzero(conv != side)[:1].tolist():
        found.append((int(primes[i]), int(conv[i]), int(side[i])))
    # every p^e <= B with p <= sqrt(B), by e:
    # (chi_D * g)(p^e) = g(p^e) + chi_D(p) (chi_D * g)(p^(e-1))
    small = primes[: np.searchsorted(primes, math.isqrt(g.size), side="right")]
    for p, c in zip(small.tolist(), chi[small].tolist()):
        conv, w, t, q = int(g[0]), f1, 1, p
        while q <= g.size:
            conv, t = int(g[q - 1]) + c * conv, t * c
            w += t if m == 0 else (_weight(fp, m, q) if m % q == 0 else 0)
            if conv != q * w:
                found.append((q, conv, q * w))
                break
            q *= p
    return min(found, default=None)


def verify_theorem(ideal: FracIdeal, m: int, s: float, B: int) -> TheoremReport:
    """Check the identity exactly on the coefficients (_identity_mismatch,
    before the lhs sum overwrites them), then |lhs - rhs| <= budget, the sum
    of three certified parts (u = 2^-53):

    - lhs.tail_bound;
    - |rhs| (dZ + dL + dX + dZ dL + dZ dX + dL dX + dZ dL dX), summed as
      written since (1 + dZ)(1 + dL)(1 + dX) - 1 rounds small terms away.
      The zeta(s-1) estimate is >= 1 and off by <= dZ = B^(1-s).  The L(s)
      sum is off by the Abel bound D B^(-s), and |L(s, chi_D)| >=
      zeta(2s)/zeta(s) > (s-1)/s, so dL = D B^(-s) s/(s-1).  At m = 0 the
      L(s-1) sum is off by eps = D B^(1-s) and at least (s-2)/(s-1) - eps,
      so dX = eps/((s-2)/(s-1) - eps); else dX = 0;
    - (B + 8) u per float sum, a sum of n terms being within (n - 1) u of
      their magnitudes (Higham, Accuracy and Stability of Numerical
      Algorithms, ch. 4) and 8 covering the per-term roundings, times |lhs|
      for the nonnegative coefficients, |rhs| for zeta, and |rhs| times the
      condition zeta(s)/|L(s)| <= (s/(s-1))^2 for L(s) and
      ((s-1)/(s-2))/((s-2)/(s-1) - eps) for L(s-1).

    At m = 0 with eps >= (s-2)/(s-1) nothing bounds L(s-1, chi_D) from
    below: a ValueError.
    """
    _check_series_args(s, B)
    disc = ideal.disc
    dz = float(B) ** (1 - s)
    dl = disc.D * float(B) ** -s / (1 - 1 / s)
    dx = kx = 0.0
    if m == 0:
        eps, floor = disc.D * dz, 1 - 1 / (s - 1)
        if eps >= floor:
            raise ValueError(
                f"L(s-1, chi_D) is not certified at B = {B}: "
                f"D B^(1-s) = {eps:.3g} >= (s-2)/(s-1) = {floor:.3g}"
            )
        dx, kx = eps / (floor - eps), 1 / floor / (floor - eps)
    fp = genus_fingerprint(ideal)
    # one chi_D(0..B) and one list of primes for the sieve, the exact check
    # and the L sums, and one w = n^(-s) that the coefficient sum reads and
    # the closed side then consumes; a vanishing divisor sum needs none
    sigma = sigma_def(fp, m, 1 - s) if m else None
    summed = sigma != 0.0
    chi = _chi_upto(disc, B) if summed else None
    primes = primes_upto(B) if summed else None
    g = _coefficients(ideal, m, B, chi, primes)
    mismatch = _identity_mismatch(fp, m, g, chi, primes)
    w = _powers(s, B) if summed else None
    lhs = _lhs_sum(disc.omega, g, s, B, w)
    del g  # the products in its buffer are summed: room for the closed side
    rhs = 0.0
    if summed:
        rhs = _rhs_sum(chi, np.arange(1, B + 1, dtype=np.float64), w, m, sigma, s, B)
    rel = dz + dl + dx + dz * dl + dz * dx + dl * dx + dz * dl * dx
    kl = 1 / (1 - 1 / s) ** 2  # zeta(s)/|L(s)|
    rounding = (B + 8) * 2.0**-53 * (abs(lhs.value) + abs(rhs) * (1 + kl + kx))
    budget = lhs.tail_bound + rel * abs(rhs) + rounding
    err = abs(lhs.value - rhs)
    passed = mismatch is None and err <= budget
    return TheoremReport(lhs, rhs, budget, err, mismatch, passed)
