import cmath
import math
from fractions import Fraction

import pytest

from quadrep.arith import eps, is_prime, kronecker
from quadrep.errors import EnumerationBoundError
from quadrep.gauss import (
    ExactGaussValue,
    ExponentVector,
    classical_gauss,
    eval_complex,
    gauss_closed,
    gauss_direct,
)
from quadrep.ideals import prime_above, residue_norm_profile, unit_ideal
from quadrep.quadfield import Discriminant

from conftest import fixture_ideals

d5 = Discriminant(5)
d21 = Discriminant(21)

PRIME_POWERS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]


def twisted_sum_direct(p: int, r: int, c: int) -> complex:
    """Sum over a mod p^r of (a|p) e(a c / p^r), evaluated directly.

    Vanishes for r > 1; for r = 1 it equals eps(p) * (c|p) * sqrt(p).
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"need an odd prime, got {p}")
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if c % p == 0:
        raise ValueError(f"c = {c} must be a unit at {p}")
    q = p**r
    total = 0j
    for a in range(q):
        s = kronecker(a, p)
        if s:
            total += s * cmath.exp(2j * cmath.pi * a * c / q)
    return total


def test_exponent_vector_validation():
    with pytest.raises(ValueError):
        ExponentVector(3, (1, 2))
    with pytest.raises(ValueError):
        ExponentVector(0, ())
    v = ExponentVector(1, (1,))
    assert eval_complex(v) == 1


def test_exact_value_validation():
    with pytest.raises(ValueError):
        ExactGaussValue("weird", Fraction(1))
    with pytest.raises(ValueError):
        ExactGaussValue("ramified", Fraction(1), 4)
    with pytest.raises(ValueError):
        ExactGaussValue("ramified", Fraction(1))
    assert ExactGaussValue("rational", Fraction(-2)).as_complex() == -2


def test_direct_pinned():
    v = gauss_direct(unit_ideal(d5), 1, 2)
    assert v.counts == (1, 3)
    assert abs(eval_complex(v) - (-2)) < 1e-12
    w = gauss_direct(unit_ideal(d5), 2, 2)
    assert w.counts == (4, 0)
    assert abs(eval_complex(w) - 4) < 1e-12


def gauss_direct_loop(ideal, a, b):
    """G_b(ideal, a) by one Python step per norm residue: the oracle for gauss_direct."""
    counts = [0] * b
    for r, n in enumerate(residue_norm_profile(ideal, b)):
        counts[a * r % b] += n
    return ExponentVector(b, tuple(counts))


@pytest.mark.parametrize(
    "a", [0, 1, 2, 3, 5, 9, 25, 360, -1, -7, -9, 2**63, 2**63 + 5, 10**30, -(2**63) - 1]
)
def test_direct_matches_loop(a):
    for disc in (d5, d21):
        for ideal in fixture_ideals(disc):
            for b in (1, 2, 3, 4, 5, 7, 8, 9, 12, 25, 27, 64, 360):
                got = gauss_direct(ideal, a, b)
                assert got == gauss_direct_loop(ideal, a, b), (ideal, a, b)
                assert all(type(c) is int for c in got.counts)


def test_direct_counts_sum_to_b_squared():
    for ideal in fixture_ideals(d21):
        for b in (2, 3, 4, 6):
            assert sum(gauss_direct(ideal, 1, b).counts) == b * b


def test_direct_depends_on_a_mod_b():
    ideal = prime_above(d21, 5)[0].ideal
    for a, b in ((1, 6), (5, 8), (-3, 9)):
        assert gauss_direct(ideal, a, b) == gauss_direct(ideal, a + b, b)
        assert gauss_direct(ideal, a, b) == gauss_direct(ideal, a - 2 * b, b)


def test_closed_pinned():
    top = gauss_closed(unit_ideal(d5), 9, 3, 2)
    assert top.kind == "rational" and top.coeff == 81
    inert = gauss_closed(unit_ideal(d5), 1, 2, 1)
    assert inert.kind == "rational" and inert.coeff == -2
    ram = gauss_closed(unit_ideal(d5), 1, 5, 1)
    assert ram.kind == "ramified" and ram.coeff == 5 and ram.p == 5
    assert abs(ram.as_complex() - 5 * cmath.sqrt(5)) < 1e-12


def test_closed_edge_cases():
    assert gauss_closed(unit_ideal(d5), 0, 3, 2).coeff == 81
    assert gauss_closed(unit_ideal(d5), 7, 3, 0).coeff == 1
    with pytest.raises(ValueError):
        gauss_closed(unit_ideal(d5), 1, 4, 1)
    with pytest.raises(ValueError):
        gauss_closed(unit_ideal(d5), 1, 3, -1)


def test_direct_matches_closed():
    # every ideal has a closed form, the prime above each ramified p and
    # its products included
    for disc in (d5, d21):
        ideals = fixture_ideals(disc)
        for p in disc.primes:
            (P,) = prime_above(disc, p)
            ideals += [P.ideal, P.ideal * ideals[1]]
        for ideal in ideals:
            for p, beta in PRIME_POWERS:
                for a in (-2, 1, 3, p):
                    got = eval_complex(gauss_direct(ideal, a, p**beta))
                    want = gauss_closed(ideal, a, p, beta).as_complex()
                    assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (ideal, a, p, beta)


def test_classical_pinned():
    closed, vec = classical_gauss(1, 5)
    assert closed.coeff == 1 and closed.p == 5
    assert abs(closed.as_complex() - cmath.sqrt(5)) < 1e-12
    assert abs(eval_complex(vec) - cmath.sqrt(5)) < 1e-12
    closed2, _ = classical_gauss(2, 5)
    assert abs(closed2.as_complex() + cmath.sqrt(5)) < 1e-12
    closed3, vec3 = classical_gauss(1, 3)
    assert abs(closed3.as_complex() - 1j * cmath.sqrt(3)) < 1e-12
    assert abs(eval_complex(vec3) - 1j * cmath.sqrt(3)) < 1e-12


def test_classical_grid():
    for c in range(3, 40, 2):
        for a in (-3, 1, 2, 4, 7):
            if math.gcd(a, c) != 1:
                continue
            closed, vec = classical_gauss(a, c)
            assert abs(closed.as_complex() - eval_complex(vec)) < 1e-9


def test_classical_validation():
    with pytest.raises(ValueError):
        classical_gauss(1, 4)
    with pytest.raises(ValueError):
        classical_gauss(3, 9)
    with pytest.raises(ValueError):
        classical_gauss(1, -3)
    with pytest.raises(EnumerationBoundError):
        classical_gauss(1, 11, limit=9)


def test_twisted_sum():
    assert abs(twisted_sum_direct(5, 2, 1)) < 1e-9
    assert abs(twisted_sum_direct(5, 1, -1) - cmath.sqrt(5)) < 1e-9
    assert abs(twisted_sum_direct(3, 3, 2)) < 1e-9
    # r = 1 closed form across small odd primes
    for p in (3, 5, 7, 11, 13):
        for c in (1, 2, -1):
            if c % p == 0:
                continue
            want = eps(p) * kronecker(c, p) * cmath.sqrt(p)
            assert abs(twisted_sum_direct(p, 1, c) - want) < 1e-9


def test_twisted_sum_validation():
    with pytest.raises(ValueError):
        twisted_sum_direct(2, 1, 1)
    with pytest.raises(ValueError):
        twisted_sum_direct(5, 0, 1)
    with pytest.raises(ValueError):
        twisted_sum_direct(5, 1, 10)
