from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadrep.errors import EnumerationBoundError, RepresentativeSearchError
from quadrep.ideals import (
    DEFAULT_MAX_ENUM_B,
    FracIdeal,
    GenusFingerprint,
    PrimIdeal,
    coprime_to,
    different_ideal,
    format_ideal,
    genus_fingerprint,
    genus_representatives,
    parse_ideal,
    prime_above,
    principal_ideal,
    residue_norm_profile,
    unit_ideal,
)
from quadrep.quadfield import Discriminant, QuadElem, omega

from conftest import fixture_ideals
from genus_reference import (
    coprime_by_valuations,
    coprime_genus_representative,
    fingerprint_by_representative,
    ideal_valuation,
    rational_legendre,
)
from test_profile import SMALL_PRIMES, small_ideals

d5 = Discriminant(5)
d17 = Discriminant(17)
d21 = Discriminant(21)
d33 = Discriminant(33)


def test_prim_canonical_form():
    p = PrimIdeal(d21, 5, 11)
    assert (p.a, p.b) == (5, 1)
    q = PrimIdeal(d21, 5, -9)
    assert (q.a, q.b) == (5, 1)
    r = PrimIdeal(d21, 5, 10 + 9)  # b = 19 -> 9
    assert (r.a, r.b) == (5, 9)
    assert p == q and p != r
    assert p.conjugate() == r


def test_prim_validation():
    with pytest.raises(ValueError):
        PrimIdeal(d5, 3, 1)  # 3 is inert, no valid b exists
    with pytest.raises(ValueError):
        PrimIdeal(d5, 2, 2)  # even b
    with pytest.raises(ValueError):
        PrimIdeal(d5, -1, 1)


def test_norms():
    assert unit_ideal(d21).norm() == 1
    p5 = prime_above(d21, 5)[0].ideal
    assert p5.norm() == 5
    assert FracIdeal(Fraction(1, 5), p5.prim).norm() == Fraction(1, 5)


def test_mul_identity_and_inverse():
    for disc in (d5, d21, d33):
        ok = unit_ideal(disc)
        for ideal in fixture_ideals(disc):
            assert ideal * ok == ideal
            assert ideal * ideal.inverse() == ok
            assert ideal.inverse().inverse() == ideal


def test_ramified_prime_squares_to_p():
    p3 = prime_above(d21, 3)[0].ideal
    sq = p3 * p3
    assert sq.scale == 3 and sq.prim.a == 1
    assert sq == FracIdeal(3, unit_ideal(d21).prim)


def test_split_prime_times_conjugate():
    p5 = prime_above(d21, 5)[0].ideal
    assert p5 * p5.conjugate() == FracIdeal(5, unit_ideal(d21).prim)


def test_mul_commutative_associative():
    for disc in (d5, d21, d33):
        ids = fixture_ideals(disc)
        assert len(ids) >= 4
        for x in ids:
            for y in ids:
                assert x * y == y * x
                assert (x * y).norm() == x.norm() * y.norm()
                for z in ids[:3]:
                    assert (x * y) * z == x * (y * z)


def test_principal_ideal_norm():
    w = omega(d5)
    assert principal_ideal(w).norm() == 1
    x = QuadElem(d21, 11, 1)  # 5 + omega
    assert x.norm() == 25
    assert principal_ideal(x).norm() == 25


def test_prime_above_split():
    ps = prime_above(d21, 5)
    assert [P.kind for P in ps] == ["split", "split"]
    forms = [(P.ideal.prim.a, P.ideal.prim.b) for P in ps]
    assert forms == [(5, 1), (5, 9)]
    assert ps[0].ideal.conjugate() == ps[1].ideal
    p2 = prime_above(d17, 2)
    assert [(P.ideal.prim.a, P.ideal.prim.b) for P in p2] == [(2, 1), (2, 3)]


def test_prime_above_inert():
    (P,) = prime_above(d5, 2)
    assert P.kind == "inert"
    assert P.ideal.scale == 2 and P.ideal.prim.a == 1
    assert P.ideal.norm() == 4
    assert P.ramification_index() == 1


def test_prime_above_ramified():
    (P,) = prime_above(d21, 3)
    assert P.kind == "ramified"
    assert (P.ideal.prim.a, P.ideal.prim.b) == (3, 3)
    assert P.ramification_index() == 2


def test_ideal_valuation():
    P5, Q5 = prime_above(d21, 5)
    assert ideal_valuation(P5.ideal, P5) == 1
    assert ideal_valuation(P5.ideal, Q5) == 0
    assert ideal_valuation(unit_ideal(d21), P5) == 0
    (P3,) = prime_above(d21, 3)
    three = FracIdeal(3, unit_ideal(d21).prim)
    assert ideal_valuation(three, P3) == 2
    fifth = FracIdeal(Fraction(1, 5), unit_ideal(d21).prim)
    assert ideal_valuation(fifth, P5) == -1
    assert ideal_valuation(fifth, Q5) == -1
    assert ideal_valuation(P5.ideal * P5.ideal, P5) == 2


def test_rational_legendre():
    assert rational_legendre(Fraction(1, 5), 3) == -1
    assert rational_legendre(4, 7) == 1
    assert rational_legendre(1, 11) == 1
    assert rational_legendre(Fraction(-1, 1), 5) == 1
    with pytest.raises(ValueError):
        rational_legendre(Fraction(3, 1), 3)
    # multiplicative where defined
    for p in (3, 7, 11):
        vals = [Fraction(2, 5), Fraction(-4, 13), Fraction(25)]
        for x in vals:
            for y in vals:
                assert rational_legendre(x * y, p) == rational_legendre(
                    x, p
                ) * rational_legendre(y, p)


def test_coprime_to():
    p5 = prime_above(d21, 5)[0].ideal
    assert coprime_to(unit_ideal(d21), 12345)
    assert not coprime_to(p5, 5)
    assert coprime_to(p5, 21)
    assert not coprime_to(FracIdeal(Fraction(1, 3), unit_ideal(d21).prim), 3)
    assert coprime_to(p5, 1)


def test_profile_pinned_values():
    ok = unit_ideal(d5)
    assert residue_norm_profile(ok, 1) == (1,)
    assert residue_norm_profile(ok, 2) == (1, 3)
    prof4 = residue_norm_profile(ok, 4)
    assert prof4[1] == 6
    assert sum(prof4) == 16
    assert sum(residue_norm_profile(ok, 7)) == 49


def test_profile_scale_invariant():
    p5 = prime_above(d21, 5)[0].ideal
    scaled = FracIdeal(Fraction(7, 3), p5.prim)
    for b in (2, 3, 4, 5, 12):
        assert residue_norm_profile(p5, b) == residue_norm_profile(scaled, b)


def test_profile_respects_enum_bound():
    with pytest.raises(EnumerationBoundError, match="exceeds enumeration bound 100") as exc:
        residue_norm_profile(unit_ideal(d5), 150, limit=100)
    # the library reads no QUADREP_MAX_B, so its errors do not name it
    assert "QUADREP_MAX_B" not in str(exc.value)
    assert len(residue_norm_profile(unit_ideal(d5), 150, limit=150)) == 150
    with pytest.raises(EnumerationBoundError):
        residue_norm_profile(unit_ideal(d5), DEFAULT_MAX_ENUM_B + 1)


def test_library_reads_no_environment(monkeypatch):
    # QUADREP_MAX_B is the CLI's setting; a library call bounds by `limit`
    monkeypatch.setenv("QUADREP_MAX_B", "50")
    assert len(residue_norm_profile(unit_ideal(Discriminant(5)), 100)) == 100


def test_fingerprint_validation():
    with pytest.raises(ValueError):
        GenusFingerprint(d21, (1, -1))  # product must be +1
    with pytest.raises(ValueError):
        GenusFingerprint(d21, (1,))
    fp = GenusFingerprint(d21, (-1, -1))
    assert fp.sign(3) == fp.sign(7) == -1
    assert fp.as_dict() == {3: -1, 7: -1}
    with pytest.raises(ValueError):
        fp.sign(5)


def test_fingerprint_pinned():
    assert genus_fingerprint(unit_ideal(d21)).as_dict() == {3: 1, 7: 1}
    p5 = prime_above(d21, 5)[0].ideal
    assert genus_fingerprint(p5).as_dict() == {3: -1, 7: -1}
    assert genus_fingerprint(p5 * p5).as_dict() == {3: 1, 7: 1}
    (p3,) = prime_above(d21, 3)
    assert genus_fingerprint(p3.ideal).as_dict() == {3: -1, 7: -1}


def test_fingerprint_narrow_invariance():
    lam = QuadElem(d21, 11, 1)  # 5 + omega
    assert lam.norm() > 0
    p5 = prime_above(d21, 5)[0].ideal
    moved = principal_ideal(lam) * p5
    assert genus_fingerprint(moved).as_dict() == genus_fingerprint(p5).as_dict()


def test_coprime_genus_representative():
    (p3,) = prime_above(d21, 3)
    rep = coprime_genus_representative(p3.ideal, 3)
    assert coprime_to(rep, 3 * 21)
    assert genus_fingerprint(rep).as_dict() == genus_fingerprint(p3.ideal).as_dict()
    ok = unit_ideal(d21)
    rep2 = coprime_genus_representative(ok, 21)
    assert genus_fingerprint(rep2).as_dict() == {3: 1, 7: 1}


def test_genus_representatives():
    for disc, want in ((d5, 1), (d21, 2), (d33, 2), (Discriminant(105), 4)):
        reps = genus_representatives(disc)
        assert len(reps) == want
        assert reps[0] == unit_ideal(disc)
        prints = {tuple(genus_fingerprint(r).signs) for r in reps}
        assert len(prints) == want


@pytest.mark.parametrize("D", (4849845, 140645505, 3457939485, 100280245065))
def test_genus_representatives_many_primes(D):
    # omega = 7..10: the walk over split primes passes 2000, the old bound
    disc = Discriminant(D)
    reps = genus_representatives(disc)
    assert len(reps) == 2 ** (disc.omega - 1)
    assert reps[0] == unit_ideal(disc)
    assert len({genus_fingerprint(r).signs for r in reps}) == len(reps)
    if disc.omega == 7:
        for r in reps:
            assert genus_fingerprint(r) == fingerprint_by_representative(r)


def test_different_ideal():
    d = different_ideal(d21)
    assert (d.prim.a, d.prim.b) == (21, 21)
    (p3,) = prime_above(d21, 3)
    (p7,) = prime_above(d21, 7)
    assert p3.ideal * p7.ideal == d
    assert d.norm() == 21


def test_format_parse_roundtrip():
    for disc in (d5, d21):
        for ideal in fixture_ideals(disc):
            assert parse_ideal(disc, format_ideal(ideal)) == ideal
    assert parse_ideal(d21, "ok") == unit_ideal(d21)
    assert parse_ideal(d21, "prime:5,2") == prime_above(d21, 5)[1].ideal
    assert parse_ideal(d21, "frac:1/5:5,1").scale == Fraction(1, 5)


@pytest.mark.parametrize(
    "text",
    ["", "bogus", "prim:5", "prim:4,2,1", "frac:0/5:5,1", "prime:5,3", "prime:4,1",
     "prim:3,1", "frac:x/y:5,1", "frac:1/0:5,1"],
)
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_ideal(d21, text)


def test_representative_search_failure():
    # impossible demand: no shell search can make the unit ideal coprime to 0
    with pytest.raises((RepresentativeSearchError, ValueError)):
        coprime_genus_representative(unit_ideal(d5), 0)


# Genus-layer properties: the fingerprint read off the norm form's A and C and
# coprimality read off the coordinates, held to the ideal-arithmetic paths of
# genus_reference.py.  Each example also tries the ideal's inverse and its
# products with a prime J above p < 60 and with J^(-1), so that scales with
# inert and ramified primes in them occur.
def _variants(ideal, p, k):
    primes = prime_above(ideal.disc, p)
    J = primes[k % len(primes)].ideal
    return J, (ideal, ideal.inverse(), ideal * J, ideal * J.inverse())


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ideal=small_ideals(), p=st.sampled_from(SMALL_PRIMES), k=st.integers(0, 1))
def test_fingerprint_property_matches_representative(ideal, p, k):
    for variant in _variants(ideal, p, k)[1]:
        assert genus_fingerprint(variant) == fingerprint_by_representative(variant)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ideal=small_ideals(), p=st.sampled_from(SMALL_PRIMES), k=st.integers(0, 1))
def test_fingerprint_property_invariance(ideal, p, k):
    J, _ = _variants(ideal, p, k)
    fp = genus_fingerprint(ideal)
    assert genus_fingerprint(ideal.conjugate()) == fp
    assert genus_fingerprint(ideal.inverse()) == fp
    assert genus_fingerprint(ideal * J * J) == fp


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    ideal=small_ideals(),
    p=st.sampled_from(SMALL_PRIMES),
    k=st.integers(0, 1),
    n=st.integers(-500, 500).filter(bool),
)
def test_coprime_to_property_matches_valuations(ideal, p, k, n):
    # p * (n % 8 + 1) <= 472 always meets the primes above p
    for variant in _variants(ideal, p, k)[1]:
        for m in (n, p * (n % 8 + 1)):
            assert coprime_to(variant, m) == coprime_by_valuations(variant, m)


# Group laws of ideal multiplication and the textual round trip.  J and K
# are primes above p < 60 in the field of I, or their inverses, so that
# scales with inert, split and ramified primes in them occur.
@st.composite
def same_field_ideals(draw):
    ideal = draw(small_ideals())

    def other():
        p = draw(st.sampled_from(SMALL_PRIMES))
        J = draw(st.sampled_from([pr.ideal for pr in prime_above(ideal.disc, p)]))
        return J.inverse() if draw(st.booleans()) else J

    return ideal, other(), other()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ideals=same_field_ideals())
def test_ideal_group_law_properties(ideals):
    I, J, K = ideals
    assert I * I.inverse() == unit_ideal(I.disc)
    assert (I * J).norm() == I.norm() * J.norm()
    assert (I * J) * K == I * (J * K)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ideals=same_field_ideals())
def test_format_parse_round_trip_property(ideals):
    I, J, K = ideals
    for ideal in (I, I.inverse(), I * J, J * K.inverse()):
        assert parse_ideal(ideal.disc, format_ideal(ideal)) == ideal
