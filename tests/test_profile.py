"""residue_norm_profile against full-grid enumeration.

The library splits b into prime powers and Hensel-lifts each part from one
count mod p; these tests hold every branch of that (the 2-part, odd
unramified and ramified p, every depth of the lifting recursion) to the
reference in profile_reference.py.
"""

import math
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrep import ideals
from quadrep.arith import is_prime
from quadrep.ideals import (
    genus_representatives,
    parse_ideal,
    prime_above,
    residue_norm_profile,
    unit_ideal,
)
from quadrep.quadfield import Discriminant

from conftest import VALID_DISCS, fixture_ideals
from profile_reference import reference_profile

# every distinct modulus whose profile the benchmark's enum_moduli ladder
# (repnum moduli and Gauss-sum prime powers) asks for, largest first
LADDER_MODULI = (
    3761, 3760, 3481, 3157, 3125, 2767, 2652, 2647, 2223, 2209, 2187, 1871, 1870,
    1681, 1637, 1575, 1331, 1320, 1319, 1105, 1024, 971, 935, 929, 782, 729, 660,
    659, 577, 552, 529, 463, 462, 443, 390, 361, 337, 331, 330,
)


@pytest.mark.parametrize("D", VALID_DISCS)
def test_profile_matches_reference_small_moduli(D):
    for ideal in fixture_ideals(Discriminant(D)):
        for b in range(1, 301):
            assert residue_norm_profile(ideal, b) == reference_profile(ideal, b), (ideal, b)


def test_profile_matches_reference_ladder_moduli():
    disc = Discriminant(105)
    unit, other = genus_representatives(disc)[:2]
    for ideal in (unit, other):
        for b in LADDER_MODULI:
            assert residue_norm_profile(ideal, b) == reference_profile(ideal, b), (ideal, b)


def _check_branch(text, D, moduli, p, a_unit, c_unit):
    ideal = parse_ideal(Discriminant(D), text)
    A, _, C = ideal.prim.form()
    assert (A % p != 0, C % p != 0) == (a_unit, c_unit)
    for b in moduli:
        assert residue_norm_profile(ideal, b) == reference_profile(ideal, b), (text, b)


def test_profile_branch_leading_unit():
    # (1, 1, -1): A is a unit at every p
    _check_branch("ok", 5, (7, 49, 343, 2401, 21, 539), 7, True, True)


def test_profile_branch_leading_divisible():
    # (11, 7, 1): swap to (C, B, A)
    _check_branch("prim:11,7", 5, (11, 121, 1331, 33, 605), 11, False, True)


def test_profile_branch_both_divisible():
    # (121, 73, 11): neither end is a unit mod 11, so (A + B + C, 2A + B, A)
    _check_branch("prim:121,73", 5, (11, 121, 1331, 33, 605), 11, False, False)


@pytest.mark.parametrize("p", [3, 7])
def test_profile_ramified_odd_part(p):
    d21 = Discriminant(21)
    for ideal in (unit_ideal(d21), prime_above(d21, p)[0].ideal):
        for k in range(1, 5):
            b = p**k
            assert residue_norm_profile(ideal, b) == reference_profile(ideal, b), (ideal, b)


def test_profile_two_part():
    for D in (5, 17, 21):  # 2 inert, split and inert again
        disc = Discriminant(D)
        for ideal in fixture_ideals(disc)[:3]:
            # every 2^e up to 2^11, then mixed moduli
            for b in tuple(2**e for e in range(1, 12)) + (12, 40, 96, 448, 1536):
                assert residue_norm_profile(ideal, b) == reference_profile(ideal, b), (D, ideal, b)


@pytest.mark.parametrize("D", [105, 1365])
def test_profile_ramified_deep_lifts(D):
    # 3, 5 and 7 all divide D: three or more levels of the singular-line recursion
    for ideal in genus_representatives(Discriminant(D)):
        for b in (3**5, 5**4, 7**3):
            assert residue_norm_profile(ideal, b) == reference_profile(ideal, b), (ideal, b)


def test_profile_memory_is_linear_in_b():
    # a q x q grid at b = 8192 would peak near 122 MiB; O(b) work stays near 0.4 MiB
    disc, b = Discriminant(21), 8192
    ideals._PROFILE_CACHE.pop((disc.D, 1, 1, b), None)
    tracemalloc.start()
    try:
        prof = residue_norm_profile(unit_ideal(disc), b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(prof) == b * b
    assert peak < 2 * 2**20, peak


# Property tests: admissible D <= 2000, a genus representative or a prime
# above a small p, and moduli up to 400.
ADMISSIBLE_D = tuple(
    D for D in range(5, 2001, 4) if all(D % (q * q) for q in range(3, math.isqrt(D) + 1, 2))
)
SMALL_PRIMES = tuple(p for p in range(2, 60) if is_prime(p))


@lru_cache(maxsize=None)
def _genus_reps(D):
    return tuple(genus_representatives(Discriminant(D)))


@st.composite
def small_ideals(draw):
    D = draw(st.sampled_from(ADMISSIBLE_D))
    disc = Discriminant(D)
    if draw(st.booleans()):
        return draw(st.sampled_from(_genus_reps(D)))
    p = draw(st.sampled_from(SMALL_PRIMES))
    return draw(st.sampled_from([pr.ideal for pr in prime_above(disc, p)]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ideal=small_ideals(), b=st.integers(1, 400))
def test_profile_property_reference_and_total(ideal, b):
    prof = residue_norm_profile(ideal, b)
    assert prof == reference_profile(ideal, b)
    assert sum(prof) == b * b


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ideal=small_ideals(), b=st.integers(1, 400))
def test_profile_property_conjugate_invariant(ideal, b):
    assert residue_norm_profile(ideal.conjugate(), b) == residue_norm_profile(ideal, b)


@st.composite
def coprime_moduli(draw):
    b1 = draw(st.integers(2, 200))
    b2 = draw(st.integers(1, 400 // b1).filter(lambda n: math.gcd(n, b1) == 1))
    return b1, b2


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ideal=small_ideals(), moduli=coprime_moduli())
def test_profile_property_crt_product(ideal, moduli):
    b1, b2 = moduli
    whole = residue_norm_profile(ideal, b1 * b2)
    p1 = residue_norm_profile(ideal, b1)
    p2 = residue_norm_profile(ideal, b2)
    assert whole == tuple(p1[r % b1] * p2[r % b2] for r in range(b1 * b2))
