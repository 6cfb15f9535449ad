import pytest

from quadrep.dirichlet import chi_table
from quadrep.quadfield import Discriminant, QuadElem, omega, sqrt_disc

from conftest import VALID_DISCS


@pytest.mark.parametrize("D", VALID_DISCS)
def test_valid_discriminants(D):
    disc = Discriminant(D)
    assert disc.D == D
    assert all(D % p == 0 for p in disc.primes)
    assert disc.omega == len(disc.primes)


@pytest.mark.parametrize("D", [8, 12, 7, 11, 45, 75, 1, 0, -3, 9, 15])
def test_invalid_discriminants(D):
    with pytest.raises((ValueError, TypeError)):
        Discriminant(D)


def test_chi_is_the_right_character():
    disc = Discriminant(21)
    chi = chi_table(disc, 21)  # chi_D(k) for k = 0..20
    assert chi[2] == -1  # 21 = 5 mod 8
    assert chi[5] == 1
    assert chi[3] == 0
    assert chi[20] == 1  # chi_D(-1) = 1: the field is real


def test_omega_satisfies_its_quadratic():
    for D in VALID_DISCS:
        disc = Discriminant(D)
        w = omega(disc)
        # omega^2 = omega + (D-1)/4
        assert w * w == w + QuadElem.from_int(disc, (D - 1) // 4)


def test_parity_validation():
    disc = Discriminant(5)
    with pytest.raises(ValueError):
        QuadElem(disc, 1, 2)
    with pytest.raises(ValueError):
        QuadElem(disc, 0, 1)
    QuadElem(disc, 1, 3)
    QuadElem(disc, -4, 2)


def test_norm_trace_conjugate():
    disc = Discriminant(5)
    w = omega(disc)
    assert w.norm() == -1
    assert w.trace() == 1
    r = sqrt_disc(disc)
    assert r.norm() == -5
    assert r.trace() == 0
    assert r * r == QuadElem.from_int(disc, 5)
    for x in (w, r, w * w + r, QuadElem(disc, 3, -1)):
        assert x + x.conjugate() == QuadElem.from_int(disc, x.trace())
        assert (x * x.conjugate()).u == 2 * x.norm()
        assert (x * x.conjugate()).v == 0


def test_ring_axioms_on_samples():
    disc = Discriminant(21)
    xs = [
        QuadElem(disc, 1, 1),
        QuadElem(disc, -3, 1),
        QuadElem(disc, 2, 0),
        QuadElem(disc, 5, -3),
    ]
    for x in xs:
        for y in xs:
            assert x * y == y * x
            assert (x + y).conjugate() == x.conjugate() + y.conjugate()
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()
            assert (x * y).norm() == x.norm() * y.norm()
            for z in xs:
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z


def test_integer_scalar_mul():
    disc = Discriminant(5)
    w = omega(disc)
    assert w * 3 == w + w + w
    assert (w * 0).is_zero()
    assert w - w == QuadElem.from_int(disc, 0)
    assert -w == w * -1


def test_str_forms():
    disc = Discriminant(5)
    assert "sqrt" in str(sqrt_disc(disc))
    assert str(QuadElem.from_int(disc, 7))
