import pytest

from quadrep.arith import factorize, kronecker
from quadrep.divisor import (
    _local_factor,
    disc_decompositions,
    prime_discriminant,
    sigma_decomp,
    sigma_def,
    sigma_euler,
    sigma_vanishes,
)
from quadrep.ideals import genus_fingerprint, genus_representatives, unit_ideal
from quadrep.quadfield import Discriminant

from conftest import fixture_ideals, ramified_sign_product

d5 = Discriminant(5)
d21 = Discriminant(21)
d33 = Discriminant(33)
d105 = Discriminant(105)

S_GRID = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)
M_GRID = [m for m in range(-10, 11) if m != 0]


def fingerprints(disc):
    return [genus_fingerprint(r) for r in genus_representatives(disc)]


def test_prime_discriminant_pinned():
    assert prime_discriminant(d21, 3) == -3
    assert prime_discriminant(d21, 7) == -7
    assert prime_discriminant(d5, 5) == 5
    assert prime_discriminant(d105, 5) == 5
    with pytest.raises(ValueError):
        prime_discriminant(d21, 5)


def test_disc_decompositions_frozen():
    assert disc_decompositions(d5) == [(1, 5), (5, 1)]
    assert disc_decompositions(d21) == [(1, 21), (-3, -7), (-7, -3), (21, 1)]
    decs = disc_decompositions(d105)
    assert len(decs) == 8
    assert all(a * b == 105 for a, b in decs)
    assert all(a % 4 == 1 and b % 4 == 1 for a, b in decs)


def test_sigma_pinned():
    fp21 = genus_fingerprint(unit_ideal(d21))
    assert sigma_def(fp21, 1, 0.0) == 4.0
    fp5 = genus_fingerprint(unit_ideal(d5))
    for s in S_GRID:
        assert sigma_def(fp5, 1, s) == 2.0
    assert sigma_def(fp5, 2, 0.0) == 0.0
    assert sigma_vanishes(fp5, 2)
    # (5 | -3) = -1 makes m = 5 a vanishing case for the principal genus
    assert sigma_vanishes(fp21, 5)
    assert not sigma_vanishes(fp21, 1)


def test_sigma_three_ways_agree():
    for disc in (d5, d21, d33):
        for fp in fingerprints(disc):
            for m in M_GRID:
                for s in S_GRID:
                    a = sigma_def(fp, m, s)
                    b = sigma_decomp(fp, m, s)
                    c = sigma_euler(fp, m, s)
                    scale = max(1.0, abs(a))
                    assert abs(a - b) <= 1e-11 * scale, (disc.D, fp.signs, m, s)
                    assert abs(a - c) <= 1e-11 * scale, (disc.D, fp.signs, m, s)


def test_sigma_functional_equation():
    for disc in (d5, d21, d33):
        for fp in fingerprints(disc):
            for m in M_GRID:
                for s in (0.5, 1.0, 1.75, 3.0):
                    lhs = sigma_def(fp, m, s)
                    rhs = sigma_def(fp, m, -s)
                    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_vanishing_matches_two_point_probe():
    # identically zero iff zero at both s = 0 and s = 1; a single zero can
    # be incidental (cancellation at s = 0 only)
    for disc in (d5, d21, d33, d105):
        for fp in fingerprints(disc):
            for m in range(-30, 31):
                if m == 0:
                    continue
                probe = (
                    abs(sigma_def(fp, m, 0.0)) < 1e-12
                    and abs(sigma_def(fp, m, 1.0)) < 1e-12
                )
                assert sigma_vanishes(fp, m) == probe, (disc.D, fp.signs, m)


def test_incidental_zero_regression():
    # m = -30 over D = 5: zero at s = 0 without being identically zero
    fp = genus_fingerprint(unit_ideal(d5))
    assert abs(sigma_def(fp, -30, 0.0)) < 1e-12
    assert abs(sigma_def(fp, -30, 1.0)) > 1e-3
    assert not sigma_vanishes(fp, -30)


def test_ramified_sign_product_exact():
    for disc in (d21, d33, d105):
        for fp in fingerprints(disc):
            for _, d2 in disc_decompositions(disc):
                for m in range(-50, 51):
                    if m == 0:
                        continue
                    left, right = ramified_sign_product(fp, d2, m)
                    assert left == right, (disc.D, fp.signs, d2, m)


def test_decomposition_subexpression():
    # the centred Euler factors, ramified and unramified, multiply to the
    # defining sum over sqrt|m| at integer s
    for fp in fingerprints(d21):
        for m in (1, 2, 5, 6, -4):
            for s in (0.0, 1.0, 2.0):
                prod = 1.0
                for p in d21.primes:
                    prod *= _local_factor(fp, m, p, s, 0)
                for p, _ in factorize(m):
                    if d21.D % p != 0:
                        prod *= _local_factor(fp, m, p, s, kronecker(d21.D, p))
                direct = sigma_def(fp, m, s) / abs(m) ** 0.5
                assert abs(prod - direct) <= 1e-11 * max(1.0, abs(direct))


def test_sigma_rejects_zero_m():
    fp = genus_fingerprint(unit_ideal(d5))
    for fn in (sigma_def, sigma_decomp, sigma_euler):
        with pytest.raises(ValueError):
            fn(fp, 0, 1.0)
    with pytest.raises(ValueError):
        sigma_vanishes(fp, 0)


def test_factor_validation():
    fp21 = genus_fingerprint(unit_ideal(d21))
    with pytest.raises(ValueError):
        ramified_sign_product(fp21, 5, 1)


def test_fingerprint_respects_genus():
    # sigma depends on the ideal only through its fingerprint
    for disc in (d21, d33):
        ids = fixture_ideals(disc)
        for x in ids:
            for y in ids:
                if genus_fingerprint(x).signs != genus_fingerprint(y).signs:
                    continue
                for m in (1, 2, 3):
                    assert sigma_def(genus_fingerprint(x), m, 1.0) == sigma_def(
                        genus_fingerprint(y), m, 1.0
                    )
