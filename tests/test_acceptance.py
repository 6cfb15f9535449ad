"""Acceptance gate: the nine criteria the package must satisfy end to end.

Each test prints a single PASS/FAIL line (visible under pytest -s and in
failure reports) and asserts the same condition, so the suite doubles as a
human-readable checklist.
"""

import math

from quadrep.arith import factorize
from quadrep.dirichlet import (
    euler_factor,
    residue_at_2,
    series_lhs,
    series_rhs,
)
from quadrep.divisor import (
    disc_decompositions,
    sigma_decomp,
    sigma_def,
    sigma_euler,
    sigma_vanishes,
)
from quadrep.gauss import classical_gauss, eval_complex, gauss_closed, gauss_direct
from quadrep.ideals import (
    genus_fingerprint,
    genus_representatives,
    prime_above,
    residue_norm_profile,
    unit_ideal,
)
from quadrep.quadfield import Discriminant
from quadrep.repnum import (
    rep_count,
    rep_count_bruteforce,
    rep_count_prime_power,
    rep_from_gauss_dft,
)

from conftest import first_split_prime, fixture_ideals, ramified_sign_product

PRIME_POWERS_343 = [
    (p, beta)
    for p in (2, 3, 5, 7)
    for beta in range(1, 9)
    if p**beta <= 343
]


def report(tag: str, desc: str, ok: bool) -> None:
    print(f"{tag} ({desc}): {'PASS' if ok else 'FAIL'}")


def test_a1_oracle_equivalence():
    ok = True
    detail = ""
    for D in (5, 13, 17, 21, 33, 57):
        disc = Discriminant(D)
        for ideal in fixture_ideals(disc):
            for b in range(1, 61):
                profile = residue_norm_profile(ideal, b)
                for m in range(-30, 31):
                    if rep_count(ideal, m, b) != profile[m % b]:
                        ok = False
                        detail = f" first failure: D={D} b={b} m={m}"
                        break
                if not ok:
                    break
            if not ok:
                break
    report("A1", "closed rep counts equal enumeration, b <= 60, |m| <= 30", ok)
    assert ok, detail


def test_a2_gauss_closed_forms():
    worst = 0.0
    for D in (5, 13, 17, 21, 33):
        disc = Discriminant(D)
        for ideal in fixture_ideals(disc):
            for p, beta in PRIME_POWERS_343:
                b = p**beta
                for a in range(-50, 51):
                    got = eval_complex(gauss_direct(ideal, a, b))
                    want = gauss_closed(ideal, a, p, beta).as_complex()
                    worst = max(worst, abs(got - want))
    for c in range(3, 100, 2):
        for a in range(1, c):
            if math.gcd(a, c) != 1:
                continue
            closed, vec = classical_gauss(a, c)
            worst = max(worst, abs(closed.as_complex() - eval_complex(vec)))
    ok = worst <= 1e-6
    report("A2", f"Gauss sums direct vs closed, worst |diff| = {worst:.2e}", ok)
    assert ok


def test_a3_dft_reconstruction():
    ok = True
    detail = ""
    for D in (5, 13, 17, 21, 33):
        disc = Discriminant(D)
        for ideal in fixture_ideals(disc)[:3]:
            for p, beta in PRIME_POWERS_343:
                for m in (-2, -1, 0, 1, 2, 3, 5):
                    got = rep_from_gauss_dft(ideal, m, p, beta)
                    want = rep_count_bruteforce(ideal, m, p**beta)
                    if got != want:
                        ok = False
                        detail = f" first failure: D={D} p={p} beta={beta} m={m}"
                        break
    report("A3", "Gauss-sum DFT reconstructs every enumerated count", ok)
    assert ok, detail


def test_a4_sigma_three_ways():
    ok = True
    detail = ""
    s_grid = (-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0)
    for D in (5, 21, 33, 105):
        disc = Discriminant(D)
        for rep in genus_representatives(disc):
            fp = genus_fingerprint(rep)
            for m in range(-30, 31):
                if m == 0:
                    continue
                for s in s_grid:
                    v = sigma_def(fp, m, s)
                    scale = max(1.0, abs(v))
                    if (
                        abs(v - sigma_decomp(fp, m, s)) > 1e-12 * scale
                        or abs(v - sigma_euler(fp, m, s)) > 1e-12 * scale
                        or abs(v - sigma_def(fp, m, -s)) > 1e-12 * scale
                    ):
                        ok = False
                        detail = f" first failure: D={D} m={m} s={s}"
                probe = (
                    abs(sigma_def(fp, m, 0.0)) < 1e-12
                    and abs(sigma_def(fp, m, 1.0)) < 1e-12
                )
                if sigma_vanishes(fp, m) != probe:
                    ok = False
                    detail = f" vanishing mismatch: D={D} m={m}"
                for _, d2 in disc_decompositions(disc):
                    left, right = ramified_sign_product(fp, d2, m)
                    if left != right:
                        ok = False
                        detail = f" sign identity: D={D} d2={d2} m={m}"
    report("A4", "divisor sums agree three ways with functional equation", ok)
    assert ok, detail


def test_a5_series_identity():
    ok = True
    detail = ""
    for D in (5, 21):
        disc = Discriminant(D)
        for rep in genus_representatives(disc):
            fp = genus_fingerprint(rep)
            for m in (-2, -1, 1, 2, 3, 4, 5):
                lhs = series_lhs(rep, m, 4.0, 5000).value
                rhs = series_rhs(fp, m, 4.0, 5000)
                if abs(lhs - rhs) > 1e-3 * max(1.0, abs(rhs)):
                    ok = False
                    detail = f" s=4 failure: D={D} m={m}"
                lhs3 = series_lhs(rep, m, 3.0, 50_000).value
                rhs3 = series_rhs(fp, m, 3.0, 50_000)
                if abs(lhs3 - rhs3) > 1e-2 * max(1.0, abs(rhs3)):
                    ok = False
                    detail = f" s=3 failure: D={D} m={m}"
    report("A5", "series identity holds at s = 4 and s = 3", ok)
    assert ok, detail


def test_a6_series_identity_m0():
    ok = True
    detail = ""
    for D in (5, 21):
        disc = Discriminant(D)
        for rep in genus_representatives(disc):
            fp = genus_fingerprint(rep)
            lhs = series_lhs(rep, 0, 4.0, 5000).value
            rhs = series_rhs(fp, 0, 4.0, 5000)
            if abs(lhs - rhs) > 1e-3 * max(1.0, abs(rhs)):
                ok = False
                detail = f" m=0 failure: D={D} ideal={rep!r}"
    report("A6", "degenerate identity at m = 0", ok)
    assert ok, detail


def test_a7_genus_invariance():
    pairs = []
    for D in (5, 21, 33):
        disc = Discriminant(D)
        p = first_split_prime(disc)
        P = prime_above(disc, p)[0].ideal
        pairs.append((P, P.conjugate()))
        pairs.append((P * P, unit_ideal(disc)))
    p3 = prime_above(Discriminant(21), 3)[0].ideal
    p5 = prime_above(Discriminant(21), 5)[0].ideal
    pairs.append((p3, p5))
    ok = True
    detail = ""
    for x, y in pairs:
        assert genus_fingerprint(x).signs == genus_fingerprint(y).signs
        for b in range(1, 41):
            if residue_norm_profile(x, b) != residue_norm_profile(y, b):
                ok = False
                detail = f" first failure: {x!r} vs {y!r} at b={b}"
                break
    report("A7", "equal fingerprints give identical residue profiles", ok)
    assert ok, detail


def _factor_partial_sum(disc, fp, p, m, s):
    """Direct Euler factor: the prime-power block of the g_rep series at p."""
    R = max(2, math.ceil(10 * math.log(10) / ((s - 2) * math.log(p))) + 1)
    if disc.D % p == 0:
        na = fp.sign(p)
        total = sum(
            rep_count_prime_power(disc, p, r + 1, m, na) * float(p) ** (-r * s)
            for r in range(R + 1)
        ) / p
    else:
        total = sum(
            rep_count_prime_power(disc, p, r, m) * float(p) ** (-r * s)
            for r in range(R + 1)
        )
    # N at p^r never exceeds 4 (r+2) p^r, so the dropped tail is geometric
    tail = sum(4 * (r + 2) * float(p) ** (r * (1 - s)) for r in range(R + 1, R + 200))
    return total, tail


def test_a8_euler_factors():
    ok = True
    detail = ""
    worst = 0.0
    for D in (5, 21, 33):
        disc = Discriminant(D)
        for rep in genus_representatives(disc):
            fp = genus_fingerprint(rep)
            for p in (2, 3, 5, 7, 11):
                for m in (0, 1, 2, 3, 4, 12):
                    for s in (3.0, 4.0):
                        closed = euler_factor(fp, m, p, s)
                        got, tail = _factor_partial_sum(disc, fp, p, m, s)
                        err = abs(got - closed)
                        allowed = tail + 1e-9 * max(1.0, abs(closed))
                        worst = max(worst, err - tail)
                        if err > allowed:
                            ok = False
                            detail = f" first failure: D={D} p={p} m={m} s={s}"
    report("A8", "closed Euler factors match direct prime-power sums", ok)
    assert ok, detail


def test_a9_residue_extrapolation():
    ok = True
    detail = ""
    fp = genus_fingerprint(unit_ideal(Discriminant(5)))
    for m in (1, 4):
        f = {
            h: h * series_rhs(fp, m, 2.0 + h, 200_000)
            for h in (0.5, 0.25, 0.125)
        }
        t1 = 2 * f[0.25] - f[0.5]
        t2 = 2 * f[0.125] - f[0.25]
        rich = (4 * t2 - t1) / 3
        res = residue_at_2(fp, m)
        rel = abs(rich - res) / abs(res)
        if rel > 0.01:
            ok = False
            detail = f" m={m}: extrapolated {rich:.6f} vs residue {res:.6f}"
    report("A9", "extrapolated pole residue matches residue_at_2 within 1%", ok)
    assert ok, detail
