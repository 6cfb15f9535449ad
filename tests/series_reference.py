"""Per-integer and per-formula references for the series layer.

coefficients_loop is the loop series_lhs used before its coefficients came
from a numpy sieve: each count is assembled from cached closed prime-power
counts along a smallest-prime-factor walk of b.  It shares only
rep_count_prime_power with the sieve, so the tests can require the two to
agree coefficient by coefficient.  l_truncated_gather and
series_rhs_separate are the truncated L sum and the closed side as they
were written before series_rhs shared one n^(-s) vector between its sums:
chi_D gathered as table[n % D], and one power pass per zeta and L sum.
"""

from __future__ import annotations

import math

import numpy as np

from quadrep.dirichlet import chi_table
from quadrep.divisor import sigma_def
from quadrep.ideals import FracIdeal, GenusFingerprint, genus_fingerprint
from quadrep.quadfield import Discriminant
from quadrep.repnum import rep_count_prime_power


def spf_sieve(n: int) -> np.ndarray:
    """Smallest prime factor for 0..n."""
    spf = np.arange(n + 1, dtype=np.int64)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            sl = spf[p * p :: p]
            np.minimum(sl, p, out=sl)
    return spf


def coefficients_loop(ideal: FracIdeal, m: int, B: int) -> list[int]:
    """g_rep(ideal, m, b) for b = 1..B, one b at a time."""
    disc = ideal.disc
    D = disc.D
    fp = genus_fingerprint(ideal)
    counts: dict[tuple[int, int], int] = {}

    def npp(p: int, e: int) -> int:
        key = (p, e)
        val = counts.get(key)
        if val is None:
            na = fp.sign(p) if D % p == 0 else None
            val = rep_count_prime_power(disc, p, e, m, na)
            counts[key] = val
        return val

    base = 1
    for p in disc.primes:
        base *= npp(p, 1)
    if base == 0:
        return [0] * B
    spf = spf_sieve(B)
    out = []
    for b in range(1, B + 1):
        n = b
        val = base
        while n > 1 and val:
            p = int(spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if D % p == 0:
                # the exponent of p in b*D is e + 1; swap out the default
                val = val // counts[(p, 1)] * npp(p, e + 1)
            else:
                val *= npp(p, e)
        q, r = divmod(val, D)
        assert r == 0, f"count {val} at modulus {b}*{D} is not divisible by {D}"
        out.append(q)
    return out


def partial_sum(coefficients: list[int], s: float) -> float:
    """Sum of g(b) b^(-s), accumulated term by term in b order."""
    total = 0.0
    for b, q in enumerate(coefficients, start=1):
        if q:
            total += q * float(b) ** (-s)
    return total


def l_truncated_gather(disc: Discriminant, s: float, B: int) -> float:
    """Partial sum of L(s, chi_D) to B terms, chi_D gathered mod D."""
    table = chi_table(disc, B + 1)
    ns = np.arange(1, B + 1, dtype=np.int64)
    return float(np.sum(table[ns % disc.D] * ns.astype(np.float64) ** (-s)))


def series_rhs_separate(fp: GenusFingerprint, m: int, s: float, B: int) -> float:
    """The closed side with a separate power pass for each truncated sum.

    zeta(t) at t = s - 1 is its partial sum to B terms plus the integral
    tail B^(1-t)/(t-1); each L sum is l_truncated_gather.
    """
    t = s - 1
    z = float(np.sum(np.arange(1, B + 1, dtype=np.float64) ** (-t))) + B ** (1 - t) / (t - 1)
    l_s = l_truncated_gather(fp.disc, s, B)
    if m == 0:
        return z * l_truncated_gather(fp.disc, s - 1, B) / l_s
    return abs(m) ** (-s / 2) * z * sigma_def(fp, m, 1 - s) / l_s
