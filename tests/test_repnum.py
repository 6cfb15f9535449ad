import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrep import ideals, repnum
from quadrep.arith import factorize, is_prime
from quadrep.ideals import parse_ideal, unit_ideal
from quadrep.quadfield import Discriminant
from quadrep.repnum import (
    g_rep,
    rep_count,
    rep_count_bruteforce,
    rep_count_prime_power,
    rep_from_gauss_dft,
)

from conftest import fixture_ideals
from test_profile import SMALL_PRIMES, small_ideals

d5 = Discriminant(5)
d13 = Discriminant(13)
d21 = Discriminant(21)


def test_rep_count_pinned():
    assert rep_count(unit_ideal(d5), 1, 4) == 6
    assert rep_count(unit_ideal(d21), 1, 3) == 6
    assert rep_count(unit_ideal(d5), 1, 20) == 60
    assert rep_count(unit_ideal(d5), 2, 5) == 0
    assert rep_count(unit_ideal(d5), 7, 1) == 1


def test_rep_count_prime_power_pinned():
    assert rep_count_prime_power(d13, 3, 1, 1) == 2
    assert rep_count_prime_power(d13, 3, 1, 3) == 5
    assert rep_count_prime_power(d21, 3, 1, 1, na_sign=1) == 6


def test_rep_count_prime_power_cases():
    # split prime: nu < beta gives (nu+1)(p-1)p^(beta-1)
    assert rep_count_prime_power(d21, 5, 2, 1) == 20
    assert rep_count_prime_power(d21, 5, 2, 5) == 40
    # nu = beta collapses to (beta+1)p^beta - beta p^(beta-1)
    assert rep_count_prime_power(d21, 5, 1, 5) == 9
    assert rep_count_prime_power(d21, 5, 1, 0) == 9
    # inert prime: count depends on the parity of nu
    assert rep_count_prime_power(d5, 2, 1, 1) == 3
    assert rep_count_prime_power(d5, 2, 2, 4) == 4
    assert rep_count_prime_power(d5, 2, 2, 2) == 0
    assert rep_count_prime_power(d5, 2, 2, 0) == 4
    # beta = 0 is the empty product
    assert rep_count_prime_power(d5, 7, 0, 3) == 1


def test_ramified_needs_na_sign():
    with pytest.raises(ValueError):
        rep_count_prime_power(d21, 3, 1, 1)
    with pytest.raises(ValueError):
        rep_count_prime_power(d21, 3, 1, 1, na_sign=2)
    # unramified primes must not demand it
    assert rep_count_prime_power(d21, 5, 1, 1, na_sign=None) == 4


def test_g_rep_pinned():
    assert g_rep(unit_ideal(d5), 1, 1) == 2
    assert g_rep(unit_ideal(d5), 2, 1) == 0
    assert g_rep(unit_ideal(d21), 1, 1) == 4


def test_formula_matches_bruteforce():
    for disc in (d5, d21):
        for ideal in fixture_ideals(disc):
            for b in range(1, 25):
                for m in range(-12, 13):
                    got = rep_count(ideal, m, b)
                    want = rep_count_bruteforce(ideal, m, b)
                    assert got == want, (disc.D, ideal, m, b)


def test_square_scaling_invariance():
    # multiplying m by a square coprime to b leaves the count unchanged
    for ideal in fixture_ideals(d21):
        for b in range(1, 26):
            for m in (0, 1, 2, 5):
                for c in (2, 3, 5, 7):
                    if math.gcd(c, b) != 1:
                        continue
                    assert rep_count_bruteforce(ideal, m, b) == rep_count_bruteforce(
                        ideal, c * c * m, b
                    )


def test_negative_and_zero_m():
    ok = unit_ideal(d5)
    for b in range(1, 20):
        assert rep_count(ok, -1, b) == rep_count_bruteforce(ok, -1, b)
        assert rep_count(ok, 0, b) == rep_count_bruteforce(ok, 0, b)


def test_dft_pinned():
    assert rep_from_gauss_dft(unit_ideal(d5), 1, 2, 2) == 6
    assert rep_from_gauss_dft(unit_ideal(d21), 1, 3, 1) == 6


def test_dft_matches_bruteforce():
    for disc in (d5, d21):
        for ideal in fixture_ideals(disc)[:3]:
            for p, beta in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)):
                for m in (0, 1, 2, -3):
                    got = rep_from_gauss_dft(ideal, m, p, beta)
                    want = rep_count_bruteforce(ideal, m, p**beta)
                    assert got == want, (disc.D, ideal, m, p, beta)


def test_dft_reads_no_profile(monkeypatch):
    # the route sums closed Gauss sums: no residue profile, at any modulus
    def refuse(*args):
        raise AssertionError("residue_norm_profile called")

    monkeypatch.setattr(ideals, "residue_norm_profile", refuse)
    monkeypatch.setattr(repnum, "residue_norm_profile", refuse)
    for ideal in (unit_ideal(d21), parse_ideal(d21, "prime:3,1")):
        for p, beta in ((2, 3), (3, 4), (5, 2), (7, 1), (2, 30), (10007, 1)):
            for m in (0, 1, -1, p ** (beta - 1), 10**30):
                got = rep_from_gauss_dft(ideal, m, p, beta)
                assert got == rep_count(ideal, m, p**beta), (ideal, p, beta, m)
    with pytest.raises(AssertionError, match="residue_norm_profile"):
        rep_count_bruteforce(unit_ideal(d21), 1, 8)


DFT_PRIME_POWERS = st.one_of(
    st.tuples(st.just(2), st.integers(1, 11)),
    st.tuples(st.just(3), st.integers(1, 7)),
    st.tuples(st.just(5), st.integers(1, 5)),
    st.tuples(st.sampled_from(SMALL_PRIMES), st.just(1)),
)


@st.composite
def dft_cases(draw):
    """A prime power and m from past int64, from 0, or from a multiple of some p^k."""
    p, beta = draw(DFT_PRIME_POWERS)
    k = draw(st.integers(0, beta))
    m = draw(st.one_of(
        st.integers(-50, 50).map(lambda c: c * p**k),
        st.sampled_from((0, 10**30, -(10**30))),
        st.integers(-8, 8).map(lambda j: 2**63 + j),
        st.integers(-8, 8).map(lambda j: -(2**63) + j),
    ))
    return p, beta, m


@settings(derandomize=True, max_examples=100, deadline=None)
@given(ideal=small_ideals(), case=dft_cases())
def test_dft_property_three_routes_agree(ideal, case):
    p, beta, m = case
    b = p**beta
    dft = rep_from_gauss_dft(ideal, m, p, beta)
    assert dft == rep_count_bruteforce(ideal, m, b) == rep_count(ideal, m, b)


@st.composite
def composite_cases(draw):
    """A composite b <= 2000, and m small, a power of a prime dividing b, or past int64."""
    b = draw(st.integers(4, 2000).filter(lambda n: not is_prime(n)))
    m = draw(st.one_of(
        st.integers(-2 * b, 2 * b),
        st.sampled_from(sorted({q for p, e in factorize(b) for q in (p ** (e - 1), p**e)})),
        st.sampled_from((0, 10**30, -(10**30))),
        st.integers(-8, 8).map(lambda j: 2**63 + j),
        st.integers(-8, 8).map(lambda j: -(2**63) + j),
    ))
    return b, m


@settings(derandomize=True, max_examples=100, deadline=None)
@given(ideal=small_ideals(), case=composite_cases())
def test_dft_product_property_at_composite_moduli(ideal, case):
    b, m = case
    dft = math.prod(rep_from_gauss_dft(ideal, m, p, e) for p, e in factorize(b))
    assert dft == rep_count_bruteforce(ideal, m, b) == rep_count(ideal, m, b)


def test_rep_count_validation():
    with pytest.raises(ValueError):
        rep_count(unit_ideal(d5), 1, 0)
    with pytest.raises(ValueError):
        rep_count_prime_power(d5, 2, -1, 1)
    # a composite modulus base is refused whatever m is, m = 0 included
    for m in (0, 1):
        with pytest.raises(ValueError):
            rep_count_prime_power(d5, 4, 1, m)
    for p, beta in ((0, 2), (1, 3), (4, 2), (-3, 2), (2, -1)):
        with pytest.raises(ValueError):
            rep_from_gauss_dft(unit_ideal(d5), 1, p, beta)
