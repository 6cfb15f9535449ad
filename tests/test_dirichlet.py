import math
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadrep.dirichlet as dirichlet
import quadrep.ideals as ideals
from quadrep.dirichlet import (
    SeriesEval,
    check_coefficients,
    chi_table,
    euler_factor,
    l_truncated,
    residue_at_2,
    series_coefficients,
    series_lhs,
    series_rhs,
    verify_theorem,
    zeta_truncated,
)
from quadrep.arith import kronecker, primes_upto, valuation
from quadrep.divisor import sigma_def
from quadrep.errors import ConsistencyError, EnumerationBoundError
from quadrep.ideals import (
    genus_fingerprint,
    genus_representatives,
    ramified_sign,
    unit_ideal,
)
from quadrep.quadfield import Discriminant
from quadrep.repnum import g_rep, rep_count_prime_power, unramified_count

import l_reference
from conftest import VALID_DISCS, fixture_ideals
from series_reference import (
    coefficients_loop,
    l_truncated_gather,
    partial_sum,
    series_rhs_separate,
)

d5 = Discriminant(5)
d21 = Discriminant(21)

# Apery's constant and L(4, chi_5), frozen to full double precision
ZETA_3 = 1.2020569031595943
L4_CHI5 = 0.9293369564949103


def fp_unit(disc):
    return genus_fingerprint(unit_ideal(disc))


def test_series_eval_validation():
    with pytest.raises(ValueError):
        SeriesEval(1.0, 10, -0.5)


def test_euler_factor_pinned():
    fp = fp_unit(d5)
    assert euler_factor(fp, 1, 2, 3.0) == 1.5
    got = euler_factor(fp, 1, 5, 3.0)
    assert abs(got - 25 / 12) < 1e-15
    # the sign at the ramified 5 comes from the fingerprint: 2 is a
    # non-residue mod 5, so m = 2 takes the other sign and the factor vanishes
    assert euler_factor(fp, 2, 5, 3.0) == 0.0


def test_euler_factor_limits():
    # unramified factors tend to 1 as s grows; the ramified one tends to
    # 1 + sigma, which only collapses to 1 when p divides m
    fp = fp_unit(d5)
    for p, m in ((2, 1), (3, 4), (7, 0)):
        assert abs(euler_factor(fp, m, p, 40.0) - 1) < 1e-10
    assert abs(euler_factor(fp, 1, 5, 40.0) - 2) < 1e-10
    assert abs(euler_factor(fp, 5, 5, 40.0) - 1) < 1e-10


def test_euler_factor_validation():
    for s in (1.0, 0.5, float("nan")):
        with pytest.raises(ValueError):
            euler_factor(fp_unit(d5), 1, 2, s)
    for m in (0, 1):
        with pytest.raises(ValueError):
            euler_factor(fp_unit(d5), m, 4, 3.0)


def test_zeta_truncated():
    ev = zeta_truncated(2.0, 100_000)
    assert abs(ev.value + ev.tail_bound - math.pi**2 / 6) < 1e-9
    one = zeta_truncated(4.0, 1)
    assert one.value == 1.0 and abs(one.tail_bound - 1 / 3) < 1e-15
    a = zeta_truncated(3.0, 10**5)
    b = zeta_truncated(3.0, 10**6)
    assert abs((a.value + a.tail_bound) - (b.value + b.tail_bound)) < 1e-9
    assert abs(b.value + b.tail_bound - ZETA_3) < 1e-12
    with pytest.raises(ValueError):
        zeta_truncated(1.0, 10)
    with pytest.raises(ValueError):
        zeta_truncated(2.0, 0)


def test_chi_table_period_sums_to_zero():
    for D in VALID_DISCS:
        table = chi_table(Discriminant(D), D)
        assert table.sum() == 0.0
        assert table[0] == 0.0


def test_l_truncated_against_euler_product():
    B = 10**6
    got = l_truncated(d5, 4.0, B).value
    prod = 1.0
    table = chi_table(d5, 5)
    for p in primes_upto(B).tolist():
        chi = table[p % 5]
        prod /= 1.0 - chi * float(p) ** (-4.0)
    assert abs(got - prod) < 1e-8
    assert abs(got - L4_CHI5) < 1e-12


def test_l_at_one_matches_class_number_formula():
    # L(1, chi_5) = 2 log((1+sqrt 5)/2) / sqrt 5
    want = 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)
    ev = l_truncated(d5, 1.0, 10**6)
    assert abs(ev.value - want) < ev.tail_bound
    assert abs(ev.value - want) < 5e-6


def test_l_truncated_validation():
    with pytest.raises(ValueError):
        l_truncated(d5, 0.0, 10)
    with pytest.raises(ValueError):
        l_truncated(d5, 2.0, 0)


def test_l_truncated_matches_gather():
    # the tiled period against table[n % D]: B past D, at D, one short of
    # D (one whole period read) and well short of D
    for D in (5, 21, 1365):
        disc = Discriminant(D)
        for B in (3 * D + 2, D, D - 1, D // 2):
            for s in (1, 2, 2.25, 3.0, 4.5):
                assert l_truncated(disc, s, B).value == l_truncated_gather(disc, s, B), (
                    D, B, s)


def test_series_rhs_matches_separate_sums():
    for D in (5, 21, 1365):
        fp = fp_unit(Discriminant(D))
        for m in (0, 1, -3):
            for s in (2.25, 3.0, 4.5):
                for B in (1, 7, D, 5000):
                    want = series_rhs_separate(fp, m, s, B)
                    got = series_rhs(fp, m, s, B)
                    assert abs(got - want) <= 1e-14 * abs(want), (D, m, s, B, got, want)


def test_series_lhs_first_term():
    for disc in (d5, d21):
        for m in (0, 1, 2):
            ev = series_lhs(unit_ideal(disc), m, 4.0, 1)
            assert ev.value == float(g_rep(unit_ideal(disc), m, 1))


def test_series_lhs_oracle_mode():
    for m in (1, 2):
        check_coefficients(unit_ideal(d5), m, 40)
    check_coefficients(unit_ideal(d21), 1, 40)
    # the moduli b*D reach 60*21 = 1260, past a limit of 1000
    with pytest.raises(EnumerationBoundError):
        check_coefficients(unit_ideal(d21), 1, 100, 1000)


def test_series_lhs_monotone_tail():
    small = series_lhs(unit_ideal(d5), 1, 3.0, 5_000)
    big = series_lhs(unit_ideal(d5), 1, 3.0, 50_000)
    assert big.value >= small.value  # nonnegative terms
    assert big.value - small.value <= small.tail_bound


def test_series_domain_validation():
    with pytest.raises(ValueError):
        series_lhs(unit_ideal(d5), 1, 2.0, 10)
    with pytest.raises(ValueError):
        series_lhs(unit_ideal(d5), 1, 3.0, 0)
    with pytest.raises(ValueError):
        series_rhs(fp_unit(d5), 1, 2.0, 10)


def test_vanishing_sigma_kills_every_term():
    # D = 5, m = 2: the series is identically zero, term by term
    ev = series_lhs(unit_ideal(d5), 2, 4.0, 60)
    assert ev.value == 0.0 and ev.tail_bound == 0.0
    check_coefficients(unit_ideal(d5), 2, 60)
    for b in range(1, 61):
        assert g_rep(unit_ideal(d5), 2, b) == 0
    assert series_rhs(fp_unit(d5), 2, 4.0, 10**4) == 0.0


def test_series_rhs_pinned():
    got = series_rhs(fp_unit(d5), 1, 4.0, 10**5)
    assert abs(got - 2 * ZETA_3 / L4_CHI5) < 1e-8
    m0 = series_rhs(fp_unit(d5), 0, 4.0, 10**5)
    l3 = l_truncated(d5, 3.0, 10**5).value
    assert abs(m0 - ZETA_3 * l3 / L4_CHI5) < 1e-8


def test_sides_agree_at_s_4():
    for disc in (d5, d21):
        for rep in genus_representatives(disc):
            fp = genus_fingerprint(rep)
            for m in (-2, -1, 0, 1, 2, 3, 4):
                lhs = series_lhs(rep, m, 4.0, 4000).value
                rhs = series_rhs(fp, m, 4.0, 4000)
                assert abs(lhs - rhs) <= 1e-3 * max(1.0, abs(rhs)), (disc.D, m)


def test_residue_pinned():
    # L(2, chi_5) = 4 pi^2/(25 sqrt 5) and L(1, chi_5) = 2 log((1+sqrt 5)/2)/sqrt 5
    l2 = 4 * math.pi**2 / (25 * math.sqrt(5))
    l1 = 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)
    got1, got2 = dirichlet._l_values(d5, 0)
    assert abs(got2 - l2) < 1e-14 * l2
    assert abs(got1 - l1) < 1e-14 * l1
    assert dirichlet._l_values(d5, 1) == (None, got2)
    res = residue_at_2(fp_unit(d5), 1)
    assert abs(res - 12.5 * math.sqrt(5) / math.pi**2) < 1e-14 * res
    assert residue_at_2(fp_unit(d5), 2) == 0.0
    m0 = residue_at_2(fp_unit(d5), 0)
    assert abs(m0 - l1 / l2) < 1e-14 * m0


ORACLE_DISCS = (5, 21, 105, 1365, 4389)


def _rel(got, want):
    return abs(got - want) / abs(want)


def test_closed_l_values_match_oracle():
    for D in ORACLE_DISCS:
        l1, l2 = dirichlet._l_values(Discriminant(D), 0)
        assert _rel(l1, l_reference.l_value(D, 1)) < 1e-13, D
        assert _rel(l2, l_reference.l_value(D, 2)) < 1e-13, D


def test_residue_matches_oracle():
    for D in ORACLE_DISCS:
        fp = fp_unit(Discriminant(D))
        for m in (0, 1, -3):
            got, want = residue_at_2(fp, m), l_reference.residue(fp, m)
            if want == 0:
                assert got == 0.0, (D, m)
            else:
                assert _rel(got, want) < 1e-13, (D, m, got)


def test_l_truncated_tail_bound_covers_error():
    # L(2.25) is left out at D = 1365 only to keep the oracle's cost down
    for D in (5, 21, 105, 1365):
        disc = Discriminant(D)
        for s in (1, 2, 2.25) if D < 1000 else (1, 2):
            want = l_reference.l_value(D, s)
            for B in (10, 1000, 20_000):
                ev = l_truncated(disc, s, B)
                assert abs(ev.value - want) <= ev.tail_bound, (D, s, B)


def test_residue_at_a_large_prime_disc():
    # L(1) and L(2) at the prime D = 30000001 from the closed forms over one
    # period, -D^(-1/2) sum of chi(a) log sin(pi a/D) and pi^2 D^(-5/2) sum
    # of chi(a) a^2
    disc = Discriminant(30000001)
    l1, l2 = dirichlet._l_values(disc, 0)
    want1, want2 = 3.5002202185618376, 1.5333427230923349
    assert _rel(l1, want1) < 1e-14
    assert _rel(l2, want2) < 1e-14
    assert _rel(residue_at_2(fp_unit(disc), 0), want1 / want2) < 1e-14


def test_e1_matches_mpmath():
    # both sides of the switch from the power series to the continued fraction
    x = np.concatenate([np.geomspace(1e-9, 40, 200), np.linspace(1.5, 3.5, 201)])
    got = dirichlet._e1(x.copy())
    with mpmath.workdps(30):
        for xv, ev in zip(x.tolist(), got.tolist()):
            want = mpmath.e1(xv)
            assert abs(ev - want) <= 1e-14 * want, xv


def test_l_value_truncation_bound(monkeypatch):
    # the docstring's bounds on the terms past x = pi n^2/D = 40 hold for
    # those terms up to x = 60, summed on their own, and for raising the cutoff
    for D in (5, 1365, 199997):
        disc, root = Discriminant(D), math.sqrt(D)
        bound1 = math.exp(-40) * (1 / (20 * root) + 1 / (math.sqrt(math.pi) * 40**1.5))
        bound2 = math.exp(-40) * (6.4 / D + 0.29 / root)
        tail1 = tail2 = 0.0
        n = math.isqrt(int(40 * D / math.pi)) + 1
        while (x := math.pi * n * n / D) <= 60:
            erfc, ex = math.erfc(math.sqrt(x)), math.exp(-x)
            tail1 += erfc / n + float(mpmath.e1(x)) / root
            tail2 += ex / n**2 + 2 * math.pi / D * (ex - math.sqrt(math.pi * x) * erfc)
            n += 1
        assert 0 < tail1 <= bound1 and 0 < tail2 <= bound2, (D, tail1, tail2)
        l1, l2 = dirichlet._l_values(disc, 0)
        with monkeypatch.context() as patch:
            patch.setattr(dirichlet, "_X_MAX", 60.0)
            far1, far2 = dirichlet._l_values(disc, 0)
        assert abs(far1 - l1) <= bound1, D
        assert abs(far2 - l2) <= bound2, D


def test_vanishing_residue_builds_no_table(monkeypatch):
    monkeypatch.setattr(dirichlet, "chi_table", None)
    monkeypatch.setattr(dirichlet, "_l_values", None)
    assert residue_at_2(fp_unit(d5), 2) == 0.0
    assert residue_at_2(fp_unit(d21), 3) == 0.0


def test_residue_by_richardson_extrapolation():
    # h f(2+h) -> residue as h -> 0; two Richardson steps from h = 1/2
    for m in (1, 4):
        f = {h: h * series_rhs(fp_unit(d5), m, 2.0 + h, 200_000) for h in (0.5, 0.25, 0.125)}
        t1 = 2 * f[0.25] - f[0.5]
        t2 = 2 * f[0.125] - f[0.25]
        rich = (4 * t2 - t1) / 3
        res = residue_at_2(fp_unit(d5), m)
        assert abs(rich - res) <= 0.01 * abs(res)


def test_verify_theorem_report():
    rep = verify_theorem(unit_ideal(d5), 1, 4.0, 5000)
    assert rep.passed and rep.mismatch is None
    assert rep.abs_err == abs(rep.lhs.value - rep.rhs) <= rep.budget
    # at s = 4 the lhs tail is nearly all of the budget
    assert rep.lhs.tail_bound < rep.budget < 1.001 * rep.lhs.tail_bound


def test_verify_theorem_names_a_wrong_prime_power_count(monkeypatch):
    # a count off by one at 11^2 alone: the float sums agree within their
    # budget, the exact check names n = 121 with both sides
    def bumped(chi, p, beta, nu):
        return unramified_count(chi, p, beta, nu) + (beta == 2 and p == 11)

    monkeypatch.setattr(dirichlet, "unramified_count", bumped)
    rep = verify_theorem(unit_ideal(d5), 1, 4.0, 2000)
    assert rep.abs_err <= rep.budget and not rep.passed
    n, lhs, rhs = rep.mismatch
    assert n == 121 and rhs == 121 * 2 and lhs != rhs


def test_verify_theorem_names_a_wrong_large_prime(monkeypatch):
    # g at 1999, the largest prime <= B, one too large: chi_D(1999) g(1) +
    # g(1999) must be 1999 f(1), and f(1) = 4 for the unit ideal at D = 21
    coefficients = dirichlet._coefficients

    def bumped(*args):
        g = coefficients(*args)
        g[1998] += 1
        return g

    monkeypatch.setattr(dirichlet, "_coefficients", bumped)
    rep = verify_theorem(unit_ideal(d21), 1, 4.0, 2000)
    assert not rep.passed
    assert rep.mismatch == (1999, 1999 * 4 + 1, 1999 * 4)


def test_verify_theorem_uncertified_l_value():
    # m = 0 needs D B^(1-s) < (s-2)/(s-1) to bound L(s-1, chi_D) from below
    with pytest.raises(ValueError, match="not certified"):
        verify_theorem(unit_ideal(d5), 0, 2.1, 10)
    assert verify_theorem(unit_ideal(d5), 0, 2.1, 10**5).passed


def test_verify_theorem_budget_covers_the_closed_side():
    # the closed side against a 30-digit evaluation: its error stays inside
    # the budget less the lhs tail, and the lhs inside the whole budget
    uncertified = 0
    for D in (5, 21, 105, 1365):
        ideal = unit_ideal(Discriminant(D))
        fp = genus_fingerprint(ideal)
        for s in (2.1, 2.5, 3.0, 4.0):
            for m in (0, 1, -3):
                exact = l_reference.closed_side(fp, m, s)
                for B in (10, 100, 2000):
                    try:
                        rep = verify_theorem(ideal, m, s, B)
                    except ValueError:
                        uncertified += 1
                        continue
                    assert rep.passed, (D, s, m, B)
                    where = (D, s, m, B, rep.rhs, rep.budget)
                    assert abs(rep.rhs - exact) <= rep.budget - rep.lhs.tail_bound, where
                    assert abs(rep.lhs.value - exact) <= rep.budget, where
    assert uncertified == 15


def test_euler_factor_matches_the_case_formulas():
    # chi_D(p) = 0 at a ramified p turns the unramified formula into
    # (1 + sign q^nu)/(1 - q); the merged factor keeps each case to rounding
    for D in (5, 21, 105):
        disc = Discriminant(D)
        for rep in genus_representatives(disc):
            fp = genus_fingerprint(rep)
            for p in primes_upto(50).tolist():
                chi = kronecker(D, p)
                for m in (0, 1, 2, 3, 12, -7, 125):
                    for s in (2.5, 3.0, 4.0):
                        q = float(p) ** (1 - s)
                        if m and not chi:
                            sign = ramified_sign(disc, p, m, fp.sign(p))
                            want = (1 + sign * q ** valuation(m, p)) / (1 - q)
                        else:
                            t = chi * q
                            nu = 0 if m == 0 else valuation(m, p) + 1
                            geo = (1 - t**nu if m else 1) / (1 - t)
                            want = (p - t) / (p * (1 - q)) * geo
                        got = euler_factor(fp, m, p, s)
                        assert abs(got - want) <= 4.5e-16 * abs(want), (D, p, m, s)


def test_verify_theorem_vanishing_case():
    rep = verify_theorem(unit_ideal(d21), 3, 4.0, 2000)
    assert rep.passed
    assert rep.lhs.value == 0.0 and rep.rhs == 0.0


def _vanishing_m(fp):
    return next(m for m in range(2, 500) if sigma_def(fp, m, -1.0) == 0.0)


def test_verify_theorem_shares_arrays(monkeypatch):
    # verify_theorem builds chi_D and n^(-s) once for both sides; its values
    # must be those of the standalone sides, bit for bit
    calls = []

    def counted(disc, n):
        calls.append(n)
        return chi_table(disc, n)

    monkeypatch.setattr(dirichlet, "chi_table", counted)
    for D in (5, 21, 1365):
        ideal = unit_ideal(Discriminant(D))
        fp = genus_fingerprint(ideal)
        vanishing = _vanishing_m(fp)
        for m in (0, 1, 30030, vanishing):
            for B in (1, 60, 10**4 + 7):
                calls.clear()
                if m == 0 and B == 1:
                    # D B^(1-s) = D: L(s-1, chi_D) is not certified
                    with pytest.raises(ValueError, match="not certified"):
                        verify_theorem(ideal, m, 3.0, B)
                    continue
                rep = verify_theorem(ideal, m, 3.0, B)
                assert len(calls) == (0 if m == vanishing else 1), (D, m, B)
                assert rep.lhs == series_lhs(ideal, m, 3.0, B), (D, m, B)
                assert rep.rhs == series_rhs(fp, m, 3.0, B), (D, m, B)


def test_vanishing_divisor_sum_builds_no_array(monkeypatch):
    def refuse(disc, B):
        raise AssertionError("chi_D built for a vanishing divisor sum")

    monkeypatch.setattr(dirichlet, "chi_table", refuse)
    for D in (5, 21, 1365):
        ideal = unit_ideal(Discriminant(D))
        fp = genus_fingerprint(ideal)
        m = _vanishing_m(fp)
        assert series_rhs(fp, m, 3.0, 10**4) == 0.0
        rep = verify_theorem(ideal, m, 3.0, 10**4)
        assert rep.lhs.value == 0.0 and rep.rhs == 0.0


def test_all_zero_path_still_runs_the_oracle(monkeypatch):
    # the zero counts skip the divisibility check, not the brute-force one
    ideal = unit_ideal(d5)
    m = _vanishing_m(genus_fingerprint(ideal))
    assert not series_coefficients(ideal, m, 50).any()
    check_coefficients(ideal, m, 50)
    monkeypatch.setattr(dirichlet, "rep_count_bruteforce", lambda *args: 1)
    with pytest.raises(ConsistencyError, match="enumeration"):
        check_coefficients(ideal, m, 50)


def test_chi_table_matches_kronecker():
    for D in range(5, 2001, 4):
        try:
            disc = Discriminant(D)
        except ValueError:
            continue
        want = np.array([kronecker(D, k) for k in range(D)])
        table = chi_table(disc, D)
        assert table.dtype == np.int8
        assert np.array_equal(table, want), D
        for n in (0, 1, 2, D // 3, D - 1, D + 5):
            assert np.array_equal(chi_table(disc, n), np.resize(want, n)), (D, n)


def test_chi_table_past_64_n_matches_kronecker():
    # a prime q > 64 n builds (k | q) multiplicatively from the primes below n
    for D in (100049, 5 * 1000033, 10000121):
        want = np.array([kronecker(D, k) for k in range(5000)])
        for n in (1, 2, 3, 97, 1563, 5000):
            assert np.array_equal(chi_table(Discriminant(D), n), want[:n]), (D, n)


def test_series_memory_follows_b_not_d():
    # the prime D = 30000001 once cost a Legendre table of D entries and
    # D/2 int64 squares: 12, 124 and 372 MiB at B = 100, and 374 MiB for
    # the residue, which reads chi_D at about 3.6 sqrt(D) terms
    ideal, B, mib = unit_ideal(Discriminant(30000001)), 100, 2**20
    fp = genus_fingerprint(ideal)
    assert _peak_bytes_per_term(lambda: series_lhs(ideal, 1, 4.0, B), mib) <= 1
    assert _peak_bytes_per_term(lambda: series_rhs(fp, 1, 4.0, B), mib) <= 1
    assert _peak_bytes_per_term(lambda: verify_theorem(ideal, 1, 4.0, B), mib) <= 1
    assert _peak_bytes_per_term(lambda: residue_at_2(fp, 1), mib) <= 4


def test_l_truncated_large_disc_is_fast():
    D, B = 48_612_265, 10**5
    start = time.perf_counter()
    ev = l_truncated(Discriminant(D), 2.0, B)
    assert time.perf_counter() - start < 2.0
    want = math.fsum(kronecker(D, k) * float(k) ** -2.0 for k in range(1, B + 1))
    assert abs(ev.value - want) <= 1e-12 * abs(want)


def test_residue_norm_profile_large_prime_is_fast():
    disc, b = Discriminant(21), 9973  # the largest prime under the default bound
    ideals._PROFILE_CACHE.pop((disc.D, 1, 1, b), None)
    start = time.perf_counter()
    prof = ideals.residue_norm_profile(unit_ideal(disc), b)
    assert time.perf_counter() - start < 1.0
    assert sum(prof) == b * b


# (D, m) on the acceptance grid, plus m = 0, vanishing divisor sums
# (D = 5, m = 2; D = 21, m = 3 for the unit ideal) and ramified p | m
SIEVE_GRID_M = (-2, -1, 0, 1, 2, 3, 4, 5, 7, 9, 21, 25, -63, 147)


def test_series_coefficients_match_loop():
    B = 10**4
    for D in (5, 21):
        for rep in genus_representatives(Discriminant(D)):
            for m in SIEVE_GRID_M:
                want = coefficients_loop(rep, m, B)
                got = series_coefficients(rep, m, B)
                assert got.tolist() == want, (D, rep, m)
                for s in (2.25, 4.0):
                    ref = partial_sum(want, s)
                    value = series_lhs(rep, m, s, B).value
                    assert abs(value - ref) <= 1e-12 * abs(ref), (D, rep, m, s)


def test_series_coefficients_match_loop_wide():
    # every fixture ideal, m with unramified and ramified prime powers,
    # prime factors above sqrt(B) and one m past 2^63
    ms = (0, 1, -3, 6, -10, 13, 49, 30030, -2 * 997, 3 * 2**70 + 5)
    for D in VALID_DISCS:
        for ideal in fixture_ideals(Discriminant(D)):
            for m in ms:
                for B in (1, 2, 60, 1000):
                    want = coefficients_loop(ideal, m, B)
                    assert series_coefficients(ideal, m, B).tolist() == want, (D, m, B)


def test_series_coefficients_at_split_and_chunk_edges():
    # B on both sides of a prime square (the small/large split at sqrt(B));
    # the large-prime multiples of each B fill one chunk (the next test
    # splits them)
    for D in (5, 21, 1365):
        for ideal in fixture_ideals(Discriminant(D)):
            for m in (0, 1, 30030):
                for B in (1, 2, 3, 4, 8, 9, 10, 120, 121, 122, 961, 10**4 + 7):
                    want = coefficients_loop(ideal, m, B)
                    assert series_coefficients(ideal, m, B).tolist() == want, (D, m, B)


def test_series_in_small_blocks(monkeypatch):
    # 16-entry chunks and blocks split the large-prime index into chunks of
    # B/8, as B >= 2^18 does by default, and the elementwise passes into
    # many blocks
    want = {}
    for B in (121, 961, 10**4 + 7):
        for m in (0, 1, 30030):
            for D in (5, 1365):
                ideal = unit_ideal(Discriminant(D))
                lhs = series_lhs(ideal, m, 3.0, B)
                want[D, m, B] = (coefficients_loop(ideal, m, B), lhs)
    monkeypatch.setattr(dirichlet, "_CHUNK", 16)
    monkeypatch.setattr(dirichlet, "_BLOCK", 16)
    for (D, m, B), (coeffs, lhs) in want.items():
        ideal = unit_ideal(Discriminant(D))
        assert series_coefficients(ideal, m, B).tolist() == coeffs, (D, m, B)
        assert series_lhs(ideal, m, 3.0, B) == lhs, (D, m, B)


def _peak_bytes_per_term(f, B):
    tracemalloc.start()
    try:
        f()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / B


def test_series_memory_per_term():
    # series_lhs, series_rhs and verify_theorem read about 16.0, 17.1 and
    # 17.1 bytes per term; holding the coefficients next to n^(-s) and a
    # third B-length array, as a product into a fresh array does, reads 24
    ideal, B = unit_ideal(d5), 10**6
    fp = genus_fingerprint(ideal)
    assert _peak_bytes_per_term(lambda: series_lhs(ideal, 1, 3.0, B), B) <= 17.1
    assert _peak_bytes_per_term(lambda: series_rhs(fp, 1, 3.0, B), B) <= 18
    for m in (0, 1):
        assert _peak_bytes_per_term(lambda: verify_theorem(ideal, m, 3.0, B), B) <= 24


def test_series_coefficients_exact_past_int64(monkeypatch):
    # D has eight prime factors.  Scaling every ramified count by 4
    # multiplies each coefficient by 4^8 and pushes the counts (D times the
    # coefficient) past 2^63, where int64 products would wrap; the sieve
    # divides each ramified count by its prime first, so it never forms them.
    D = 5 * 13 * 17 * 29 * 37 * 41 * 53 * 61
    ideal = unit_ideal(Discriminant(D))
    B = 3000

    def scaled(disc, p, beta, m, na_sign=None):
        return rep_count_prime_power(disc, p, beta, m, na_sign) * (
            4 if disc.D % p == 0 else 1
        )

    monkeypatch.setattr(dirichlet, "rep_count_prime_power", scaled)
    for m in (0, 1, 4):
        want = [4**8 * g for g in coefficients_loop(ideal, m, B)]
        assert max(want) * D >= 2**63
        assert series_coefficients(ideal, m, B).tolist() == want, m


def test_series_coefficients_checks(monkeypatch):
    ideal = unit_ideal(d21)

    def off_by_one(disc, p, beta, m, na_sign=None):
        return rep_count_prime_power(disc, p, beta, m, na_sign) + (disc.D % p == 0)

    monkeypatch.setattr(dirichlet, "rep_count_prime_power", off_by_one)
    with pytest.raises(ConsistencyError, match="not divisible"):
        series_coefficients(ideal, 1, 50)

    def scaled(disc, p, beta, m, na_sign=None):
        return rep_count_prime_power(disc, p, beta, m, na_sign) * (1 + (p == 2))

    monkeypatch.setattr(dirichlet, "rep_count_prime_power", scaled)
    wrong = series_coefficients(ideal, 4, 50)  # 2 | m: the scalar count is used
    assert wrong[1] == 2 * g_rep(ideal, 4, 2)
    with pytest.raises(ConsistencyError, match="enumeration"):
        check_coefficients(ideal, 4, 50)


def test_ramified_count_not_divisible_past_the_first_power(monkeypatch):
    # the counts at 3 and 7 stay divisible; only 3^2 and above are broken
    ideal = unit_ideal(d21)

    def broken(disc, p, beta, m, na_sign=None):
        return rep_count_prime_power(disc, p, beta, m, na_sign) + (p == 3 and beta >= 2)

    monkeypatch.setattr(dirichlet, "rep_count_prime_power", broken)
    for check in (series_coefficients, check_coefficients):
        with pytest.raises(ConsistencyError, match=r"3\^2 is not divisible"):
            check(ideal, 1, 50)


def test_series_coefficients_bound_before_allocation():
    # 2^(omega+1) B^(3/2) passes 2^63 at B = 2^42 for D = 5; the guard
    # raises before the ramified counts or any array
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="int64"):
            series_coefficients(unit_ideal(d5), 1, 2**42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


PROPERTY_DISCS = (5, 21, 105, 1365, 3005)
_REPRESENTATIVES = {D: genus_representatives(Discriminant(D)) for D in PROPERTY_DISCS}


@st.composite
def sieve_cases(draw):
    D = draw(st.sampled_from(PROPERTY_DISCS))
    ideal = draw(st.sampled_from(_REPRESENTATIVES[D]))
    m = draw(
        st.one_of(
            st.integers(-60, 60),
            st.builds(
                lambda p, k: p * k,
                st.sampled_from(ideal.disc.primes),
                st.integers(-60, 60),
            ),
            st.just(2**63 + 5),
        )
    )
    return ideal, m, draw(st.integers(1, 700))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=sieve_cases())
def test_series_coefficients_property(case):
    ideal, m, B = case
    assert series_coefficients(ideal, m, B).tolist() == coefficients_loop(ideal, m, B)


def test_non_finite_s_rejected():
    nan = float("nan")
    with pytest.raises(ValueError):
        series_lhs(unit_ideal(d5), 1, nan, 10)
    with pytest.raises(ValueError):
        series_rhs(fp_unit(d5), 1, nan, 10)
    with pytest.raises(ValueError):
        zeta_truncated(nan, 10)
    with pytest.raises(ValueError):
        l_truncated(d5, nan, 10)
    with pytest.raises(ValueError):
        euler_factor(fp_unit(d5), 1, 2, nan)
