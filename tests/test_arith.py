from fractions import Fraction

import numpy as np
import pytest

from quadrep.arith import (
    divisors,
    eps,
    factorize,
    is_prime,
    kronecker,
    primes_upto,
    sqrt_mod,
    valuation,
    xgcd,
)
from quadrep.errors import FactorizationBoundError


def test_kronecker_pinned_values():
    assert kronecker(5, 1) == 1
    assert kronecker(5, 2) == -1
    assert kronecker(-3, 5) == -1
    assert kronecker(21, 5) == 1
    assert kronecker(0, 1) == 1
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(2, 0) == 0


def test_kronecker_against_sympy():
    sympy_kron = pytest.importorskip(
        "sympy.functions.combinatorial.numbers"
    ).kronecker_symbol
    for a in range(-60, 61):
        for n in range(-60, 61):
            assert kronecker(a, n) == int(sympy_kron(a, n)), (a, n)


def test_kronecker_multiplicative_in_numerator():
    # (0/n) with n < 0 breaks the identity in every standard convention
    for n in range(-40, 41):
        for a in range(-15, 16):
            for b in range(-15, 16):
                if n < 0 and a * b == 0:
                    continue
                assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_kronecker_euler_criterion():
    for p in (3, 5, 7, 11, 13, 37):
        for a in range(-30, 31):
            k = kronecker(a, p)
            if a % p == 0:
                assert k == 0
            else:
                assert k % p == pow(a, (p - 1) // 2, p)


def test_eps_values():
    assert eps(1) == 1
    assert eps(5) == 1
    assert eps(21) == 1
    assert eps(3) == 1j
    assert eps(7) == 1j
    with pytest.raises(ValueError):
        eps(4)
    with pytest.raises(ValueError):
        eps(-3)


def test_is_prime():
    # past the witnesses' trial division, n < 41^2 is prime at once; the
    # range holds the composites 37^2 = 1369 and 41^2 = 1681 on either side
    small = set(primes_upto(1999).tolist())
    for n in range(-5, 2000):
        assert is_prime(n) == (n in small), n
    assert is_prime(561) is False  # Carmichael
    assert is_prime(2**61 - 1) is True


def test_factorize():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(21) == [(3, 1), (7, 1)]
    assert factorize(-5) == [(5, 1)]
    assert factorize(1) == []
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(FactorizationBoundError):
        factorize(10**13)


def test_divisors():
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert divisors(-10) == [1, 2, 5, 10]


def test_valuation():
    assert valuation(Fraction(9, 2), 3) == 2
    assert valuation(1, 7) == 0
    assert valuation(Fraction(5, 49), 7) == -2
    assert valuation(48, 2) == 4
    assert valuation(-48, 2) == 4
    with pytest.raises(ValueError):
        valuation(0, 3)
    # factors of p are counted whether p is prime or not; p < 2 never ends
    assert valuation(48, 4) == 2
    for p in (1, 0, -2):
        with pytest.raises(ValueError):
            valuation(48, p)


def test_sqrt_mod_roundtrip():
    for p in (3, 5, 13, 17, 29, 41):
        for n in range(p):
            if kronecker(n, p) == -1:
                with pytest.raises(ValueError):
                    sqrt_mod(n, p)
            else:
                r = sqrt_mod(n, p)
                assert r * r % p == n % p


def test_primes_upto():
    assert primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(1).tolist() == []
    assert primes_upto(30).dtype == np.int64


def test_xgcd():
    for a in range(-20, 21):
        for b in range(-20, 21):
            g, x, y = xgcd(a, b)
            assert g >= 0
            assert a * x + b * y == g
            if a or b:
                assert a % g == 0 and b % g == 0
