"""Fractional ideals of the ring of integers in standard two-generator form.

A primitive integral ideal is the module Z*a + Z*(b + sqrt(D))/2 with b odd,
0 < b <= 2a and a | (b^2 - D)/4; every fractional ideal is a positive
rational multiple of exactly one such module.  Products are reduced through
a 2x2 Hermite normal form over the half-integer coordinates, so the whole
module is exact integer/rational arithmetic.  The one enumeration primitive,
`residue_norm_profile`, counts the values of the ideal's norm form on
(Z/bZ)^2 with numpy: it splits b into prime powers by the Chinese remainder
theorem and Hensel-lifts each part p^e from the smooth points mod p, counted
for odd p by completing the square and convolving two histograms of squares.
Genus fingerprints are read off the coefficients A and C of the norm form,
and coprimality off the coordinates a, num and den; neither multiplies
ideals.  `ramified_sign` is the one home of the local sign at a ramified
prime shared by the closed representation numbers, both Euler factors and
ramified Gauss sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import factorize, is_prime, kronecker, sqrt_mod, valuation, xgcd
from .errors import EnumerationBoundError
from .quadfield import Discriminant, QuadElem, omega

DEFAULT_MAX_ENUM_B = 10_000


def check_enum_bound(b: int, limit: int) -> None:
    """Refuse a modulus b past `limit`.

    The bound caps what one modulus may cost: a residue profile holds b
    counts and takes O(b) time apart from one length-p convolution per odd
    p | b, brute force reads such a profile, and the classical Gauss sum
    enumerates all b residues.  The CLI passes its QUADREP_MAX_B setting
    here and names it in the error; the library reads no environment.
    """
    if b > limit:
        raise EnumerationBoundError(f"modulus {b} exceeds enumeration bound {limit}")


class PrimIdeal:
    """Primitive integral ideal Z*a + Z*(b + sqrt(D))/2 in canonical form.

    b is reduced to the unique odd representative in (0, 2a]; the constructor
    rejects modules that are not stable under the full ring of integers.
    """

    __slots__ = ("disc", "a", "b")

    def __init__(self, disc: Discriminant, a: int, b: int):
        if a <= 0:
            raise ValueError(f"leading coefficient must be positive, got {a}")
        if b % 2 == 0:
            raise ValueError(f"second generator coordinate must be odd, got {b}")
        b %= 2 * a  # odd, hence nonzero: lands in (0, 2a)
        if (b * b - disc.D) % (4 * a) != 0:
            raise ValueError(
                f"[{a}, {b}] is not an ideal for D = {disc.D}: a must divide (b^2 - D)/4"
            )
        self.disc = disc
        self.a = a
        self.b = b

    def form(self) -> tuple[int, int, int]:
        """Coefficients (a, b, c) of the norm form a x^2 + b xy + c y^2.

        The form has discriminant b^2 - 4ac = D and value N(x*alpha + y*beta)
        divided by the ideal norm, for the standard basis alpha, beta.
        """
        c = (self.b * self.b - self.disc.D) // (4 * self.a)
        return self.a, self.b, c

    def conjugate(self) -> PrimIdeal:
        return PrimIdeal(self.disc, self.a, -self.b)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PrimIdeal)
            and self.disc == other.disc
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self) -> int:
        return hash((self.disc.D, self.a, self.b))

    def __repr__(self) -> str:
        return f"PrimIdeal(D={self.disc.D}, [{self.a}, {self.b}])"


class FracIdeal:
    """Fractional ideal: positive rational scale times a primitive ideal."""

    __slots__ = ("scale", "prim")

    def __init__(self, scale: Fraction | int, prim: PrimIdeal):
        scale = Fraction(scale)
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = scale
        self.prim = prim

    @property
    def disc(self) -> Discriminant:
        return self.prim.disc

    def norm(self) -> Fraction:
        return self.scale * self.scale * self.prim.a

    def conjugate(self) -> FracIdeal:
        return FracIdeal(self.scale, self.prim.conjugate())

    def inverse(self) -> FracIdeal:
        """The fractional inverse, via conjugate/norm."""
        return FracIdeal(
            1 / (self.scale * self.prim.a), self.prim.conjugate()
        )

    def form(self) -> tuple[int, int, int]:
        return self.prim.form()

    def __mul__(self, other: FracIdeal) -> FracIdeal:
        if self.disc != other.disc:
            raise ValueError("mixed discriminants")
        disc = self.disc
        a1, b1 = self.prim.a, self.prim.b
        a2, b2 = other.prim.a, other.prim.b
        gens1 = (QuadElem(disc, 2 * a1, 0), QuadElem(disc, b1, 1))
        gens2 = (QuadElem(disc, 2 * a2, 0), QuadElem(disc, b2, 1))
        prods = [x * y for x in gens1 for y in gens2]
        content, prim = _module_from_rows(disc, [(z.u, z.v) for z in prods])
        return FracIdeal(self.scale * other.scale * content, prim)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FracIdeal)
            and self.scale == other.scale
            and self.prim == other.prim
        )

    def __hash__(self) -> int:
        return hash((self.scale, self.prim))

    def __repr__(self) -> str:
        return f"FracIdeal({self.scale} * {self.prim!r})"

    def key(self) -> tuple[int, Fraction, int, int]:
        """Hashable identity used for caches."""
        return (self.disc.D, self.scale, self.prim.a, self.prim.b)


def unit_ideal(disc: Discriminant) -> FracIdeal:
    """The full ring of integers as a fractional ideal."""
    return FracIdeal(1, PrimIdeal(disc, 1, 1))


def _module_from_rows(
    disc: Discriminant, rows: list[tuple[int, int]]
) -> tuple[int, PrimIdeal]:
    """Split the lattice spanned by half-coordinate rows into content * primitive.

    Rows (u, v) denote (u + v*sqrt(D))/2.  Returns (content, PrimIdeal) with
    the lattice equal to content * (Z*a + Z*(b + sqrt(D))/2).  Assumes the
    lattice is stable under the ring of integers; the PrimIdeal constructor
    re-checks stability.
    """
    # Stage 1: a single vector (h, k) with k = gcd of all v-coordinates.
    h, k = 0, 0
    for u, v in rows:
        if v == 0:
            continue
        g, x, y = xgcd(k, v)
        h, k = x * h + y * u, g
    if k == 0:
        raise ValueError("rows do not span a rank-2 module")
    # Stage 2: the intersection with the x-axis is generated by (g0, 0).
    g0 = 0
    for u, v in rows:
        g0 = math.gcd(g0, u - (v // k) * h)
    if g0 == 0:
        raise ValueError("rows do not span a rank-2 module")
    if h % k != 0 or g0 % (2 * k) != 0:
        raise ValueError("module is not stable under the ring of integers")
    a = g0 // (2 * k)
    b = h // k
    return k, PrimIdeal(disc, a, b)


def principal_ideal(elem: QuadElem, scale: Fraction | int = 1) -> FracIdeal:
    """The principal fractional ideal generated by scale * elem."""
    if elem.is_zero():
        raise ValueError("zero generates no fractional ideal")
    w = omega(elem.disc)
    rows = [(elem.u, elem.v), ((elem * w).u, (elem * w).v)]
    content, prim = _module_from_rows(elem.disc, rows)
    return FracIdeal(Fraction(scale) * content, prim)


def different_ideal(disc: Discriminant) -> FracIdeal:
    """The different (sqrt(D)), norm D."""
    return FracIdeal(1, PrimIdeal(disc, disc.D, disc.D))


@dataclass(frozen=True)
class PrimeIdeal:
    """A prime of the ring of integers lying above the rational prime p."""

    p: int
    kind: str  # "split" | "inert" | "ramified"
    ideal: FracIdeal

    def ramification_index(self) -> int:
        return 2 if self.kind == "ramified" else 1


def prime_above(disc: Discriminant, p: int) -> list[PrimeIdeal]:
    """The primes above p, ordered by their canonical b coordinate.

    chi_D(p) = +1 gives the two conjugate split primes, -1 the inert ideal
    (p) itself, and 0 the unique ramified prime.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    D = disc.D
    chi = kronecker(D, p)
    if chi == -1:
        return [PrimeIdeal(p, "inert", FracIdeal(p, PrimIdeal(disc, 1, 1)))]
    if chi == 0:
        # p | D is odd, and b = p is the unique odd solution of
        # b^2 = D (mod 4p) in (0, 2p].
        return [PrimeIdeal(p, "ramified", FracIdeal(1, PrimIdeal(disc, p, p)))]
    if p == 2:
        # D = 1 (mod 8): both odd classes mod 4 work.
        found = [PrimIdeal(disc, 2, 1), PrimIdeal(disc, 2, 3)]
    else:
        r = sqrt_mod(D, p)
        bs = set()
        for root in (r, p - r):
            b = root if root % 2 == 1 else root + p  # odd lift mod 2p
            bs.add(b % (2 * p))
        found = [PrimIdeal(disc, p, b) for b in sorted(bs)]
    return [PrimeIdeal(p, "split", FracIdeal(1, prim)) for prim in found]


def coprime_to(ideal: FracIdeal, n: int) -> bool:
    """True when every prime above every prime factor of n has valuation 0.

    That is gcd(n, a * num * den) = 1 for the ideal (num/den) * [a, b]: a
    prime above p divides the primitive part exactly when p | a, and that
    part holds at most one prime above p (once, if p ramifies), so a scale
    with val_p != 0 always leaves some prime above p a nonzero valuation.
    """
    if n == 0:
        raise ValueError("coprimality to 0 is not meaningful")
    s = ideal.scale
    return math.gcd(n, ideal.prim.a * s.numerator * s.denominator) == 1


# Profiles depend only on (D, a, b, modulus); scales drop out entirely.
_PROFILE_CACHE: dict[tuple[int, int, int, int], tuple[int, ...]] = {}


def residue_norm_profile(
    ideal: FracIdeal, b: int, limit: int = DEFAULT_MAX_ENUM_B
) -> tuple[int, ...]:
    """Counts of N(lambda)/N(ideal) mod b over lambda in ideal/(b*ideal).

    Entry r of the result is the number of (x, y) in (Z/bZ)^2 with
    Q(x, y) = r (mod b), where Q is the ideal's norm form; the counts sum
    to b^2.  By the Chinese remainder theorem the count at r is the product
    of the counts at r mod q over the prime powers q || b, and each part
    is Hensel-lifted from one count mod p (`_prime_power_counts`), so the
    whole profile costs O(b) time and memory plus one length-p convolution
    per odd prime p | b.  No part is enumerated pair by pair.
    """
    if b < 1:
        raise ValueError(f"modulus must be >= 1, got {b}")
    check_enum_bound(b, limit)
    key = (ideal.disc.D, ideal.prim.a, ideal.prim.b, b)
    cached = _PROFILE_CACHE.get(key)
    if cached is not None:
        return cached
    form = ideal.prim.form()
    counts = np.ones(b, dtype=np.int64)  # every entry stays <= b^2
    for p, e in factorize(b):
        counts *= np.tile(_prime_power_counts(form, p, e), b // p**e)
    profile = tuple(counts.tolist())
    _PROFILE_CACHE[key] = profile
    return profile


def _prime_power_counts(form: tuple[int, int, int], p: int, e: int) -> np.ndarray:
    """Counts of Q(x, y) mod p^e, lifted from the points that are smooth mod p.

    A point mod p where the gradient of Q is nonzero lifts to exactly
    p^(e-1) points mod p^e with any given value of Q.  The singular points
    recurse: for p not dividing D only the origin is singular, and
    x = p x', y = p y' gives Q = p^2 Q(x', y'); for p | D they form the line
    x = -t y with t = B/(2A) mod p, and x = -t y + p z gives Q = p Q'(z, y)
    with Q' = (A p, B - 2 A t, Q(-t, 1)/p), again of discriminant D.  The
    levels cost O(p^e) numpy work in all.
    """
    A, B, C = form
    if A % p == 0:
        # a unimodular change of variables, which leaves the counts alone;
        # the form is primitive, so p does not divide B when it divides A and C
        A, B, C = (C, B, A) if C % p else (A + B + C, 2 * A + B, A)
    ramified = (B * B - 4 * A * C) % p == 0
    if p == 2:  # D is odd, so only the origin is singular mod 2
        smooth = np.bincount([A % 2, C % 2, (A + B + C) % 2], minlength=2)
    else:  # less the singular points, all with Q = 0
        smooth = _completed_counts(A, B, C, p)
        smooth[0] -= p if ramified else 1
    counts = np.tile(smooth, p ** (e - 1))
    counts *= p ** (e - 1)
    if ramified:
        t = B * pow(2 * A, -1, p) % p
        inner = (A * p, B - 2 * A * t, (A * t * t - B * t + C) // p)
        counts[::p] += p * (_prime_power_counts(inner, p, e - 1) if e > 1 else 1)
    elif e == 1:
        counts[0] += 1  # the origin
    else:
        # (x', y') mod p^(e-1) covers each pair mod p^(e-2) p^2 times
        counts[:: p * p] += p * p * (_prime_power_counts(form, p, e - 2) if e > 2 else 1)
    return counts


def _completed_counts(A: int, B: int, C: int, p: int) -> np.ndarray:
    """Counts of A x^2 + B xy + C y^2 mod an odd prime p not dividing A.

    4A Q(x, y) = u^2 - D y^2 for u = 2Ax + By, and x -> u is a bijection
    mod p for each y, so the count at r is the number of (u, y) with
    u^2 - D y^2 = 4A r (mod p): one length-p convolution of two histograms
    of squares.
    """
    D = B * B - 4 * A * C
    ys = np.arange(p, dtype=np.int64)
    y2 = ys * ys % p
    squares = np.bincount(y2, minlength=p)
    scaled = np.bincount(-D % p * y2 % p, minlength=p)
    conv = np.convolve(squares, scaled)
    conv[: p - 1] += conv[p:]
    return conv[(4 * A % p) * ys % p]


@dataclass(frozen=True)
class GenusFingerprint:
    """Signs chi_{D(p)}(N) at the ramified primes; the product is always +1."""

    disc: Discriminant
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.signs) != self.disc.omega:
            raise ValueError("one sign per ramified prime required")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError(f"signs must be +-1, got {self.signs}")
        if math.prod(self.signs) != 1:
            raise ValueError(f"sign product must be +1, got {self.signs}")

    def sign(self, p: int) -> int:
        for q, s in zip(self.disc.primes, self.signs):
            if q == p:
                return s
        raise ValueError(f"{p} does not ramify in D = {self.disc.D}")

    def as_dict(self) -> dict[int, int]:
        return dict(zip(self.disc.primes, self.signs))


def ramified_sign(disc: Discriminant, p: int, m: int, na_sign: int) -> int:
    """(-(D/p) | p)^nu * (m/p^nu | p) * na_sign at a ramified p, nu = val_p(m), m != 0.

    na_sign is the fingerprint sign at p: the norm symbol of a coprime ideal in the genus.
    """
    if na_sign not in (-1, 1):
        raise ValueError(f"ramified prime {p} needs na_sign = +-1, got {na_sign}")
    nu = valuation(m, p)
    return kronecker(-(disc.D // p), p) ** (nu % 2) * kronecker(m // p**nu, p) * na_sign


_FINGERPRINT_CACHE: dict[tuple, GenusFingerprint] = {}


def genus_fingerprint(ideal: FracIdeal) -> GenusFingerprint:
    """The genus fingerprint of the ideal, read off its norm form (A, B, C).

    Any value v of the form prime to a ramified p is the norm of
    (lambda) * ideal^(-1), an integral ideal in the same genus, and
    4 A v = (2Ax + By)^2 - D y^2 = (2Ax + By)^2 (mod p), so (v | p) = (A | p)
    when p does not divide A (Gauss's assigned characters; Cox, Primes of
    the Form x^2 + ny^2, section 3).  Otherwise (v | p) = (C | p) by the same
    identity in y: p cannot divide both, since then p | B and D is
    squarefree.  The scale enters the norm squared.  Cached per ideal.
    """
    key = ideal.key()
    cached = _FINGERPRINT_CACHE.get(key)
    if cached is not None:
        return cached
    A, _, C = ideal.prim.form()
    disc = ideal.disc
    fp = GenusFingerprint(disc, tuple(kronecker(A if A % p else C, p) for p in disc.primes))
    _FINGERPRINT_CACHE[key] = fp
    return fp


def genus_representatives(disc: Discriminant) -> list[FracIdeal]:
    """One integral ideal per genus, the unit ideal first.

    Walks the split primes p = 2, 3, 5, ... in increasing order, taking the
    first prime above each, until all 2^(omega-1) fingerprints are seen.
    Every genus holds infinitely many split primes (Dirichlet's theorem),
    so the walk ends.  Deterministic for a fixed discriminant.
    """
    want = 2 ** (disc.omega - 1)
    one = unit_ideal(disc)
    reps = {genus_fingerprint(one).signs: one}
    p = 1
    while len(reps) < want:
        p += 1
        if kronecker(disc.D, p) != 1 or not is_prime(p):
            continue
        cand = prime_above(disc, p)[0].ideal
        reps.setdefault(genus_fingerprint(cand).signs, cand)
    return list(reps.values())


def format_ideal(ideal: FracIdeal) -> str:
    """Canonical textual form: "ok", "prim:a,b" or "frac:num/den:a,b"."""
    a, b = ideal.prim.a, ideal.prim.b
    if ideal.scale == 1:
        if a == 1:
            return "ok"
        return f"prim:{a},{b}"
    s = ideal.scale
    return f"frac:{s.numerator}/{s.denominator}:{a},{b}"


def parse_ideal(disc: Discriminant, text: str) -> FracIdeal:
    """Parse the textual ideal grammar.

    Accepted forms: "ok" (unit ideal), "prim:a,b", "frac:num/den:a,b" and
    "prime:p,k" for the k-th (1-based) prime above p in canonical order.
    """
    text = text.strip()
    if text == "ok":
        return unit_ideal(disc)
    head, _, rest = text.partition(":")
    if head == "prim":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValueError(f"prim spec takes a,b: {text!r}")
        return FracIdeal(1, PrimIdeal(disc, int(parts[0]), int(parts[1])))
    if head == "frac":
        scale_txt, sep, ab = rest.partition(":")
        parts = ab.split(",")
        if not sep or len(parts) != 2:
            raise ValueError(f"frac spec takes num/den:a,b: {text!r}")
        num, _, den = scale_txt.partition("/")
        den = int(den) if den else 1
        if den == 0:
            raise ValueError(f"frac spec has a zero denominator: {text!r}")
        scale = Fraction(int(num), den)
        return FracIdeal(scale, PrimIdeal(disc, int(parts[0]), int(parts[1])))
    if head == "prime":
        parts = rest.split(",")
        if len(parts) != 2:
            raise ValueError(f"prime spec takes p,k: {text!r}")
        p, k = int(parts[0]), int(parts[1])
        primes = prime_above(disc, p)
        if not 1 <= k <= len(primes):
            raise ValueError(f"index {k} out of range: {len(primes)} prime(s) above {p}")
        return primes[k - 1].ideal
    raise ValueError(f"unknown ideal spec {text!r}")
