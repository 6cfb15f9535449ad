"""The real quadratic field Q(sqrt(D)) for an odd fundamental discriminant D.

Ring-of-integers elements are stored in half-integer coordinates: the pair
(u, v) with u = v (mod 2) denotes (u + v*sqrt(D))/2.  For D = 1 (mod 4) these
are exactly the elements of Z + Z*(1+sqrt(D))/2, so addition, multiplication,
conjugation, norm and trace all stay in integers.
"""

from __future__ import annotations

from .arith import factorize


class Discriminant:
    """Validated odd fundamental discriminant of a real quadratic field.

    Accepts exactly the squarefree odd integers D > 1 with D = 1 (mod 4).
    """

    __slots__ = ("D", "primes")

    def __init__(self, D: int):
        if not isinstance(D, int) or isinstance(D, bool):
            raise ValueError(f"discriminant must be an int, got {D!r}")
        if D <= 1:
            raise ValueError(f"discriminant must exceed 1, got {D}")
        if D % 2 == 0:
            raise ValueError(f"discriminant must be odd, got {D}")
        if D % 4 != 1:
            raise ValueError(f"discriminant must be 1 mod 4, got {D}")
        fac = factorize(D)
        if any(e > 1 for _, e in fac):
            raise ValueError(f"discriminant must be squarefree, got {D}")
        self.D = D
        self.primes = tuple(p for p, _ in fac)

    @property
    def omega(self) -> int:
        return len(self.primes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Discriminant) and self.D == other.D

    def __hash__(self) -> int:
        return hash(("Discriminant", self.D))

    def __repr__(self) -> str:
        return f"Discriminant({self.D})"


class QuadElem:
    """Element (u + v*sqrt(D))/2 of the ring of integers, u = v (mod 2)."""

    __slots__ = ("disc", "u", "v")

    def __init__(self, disc: Discriminant, u: int, v: int):
        if (u - v) % 2 != 0:
            raise ValueError(f"coordinates must have equal parity, got ({u}, {v})")
        self.disc = disc
        self.u = u
        self.v = v

    @classmethod
    def from_int(cls, disc: Discriminant, n: int) -> QuadElem:
        return cls(disc, 2 * n, 0)

    def _check(self, other: QuadElem) -> None:
        if self.disc != other.disc:
            raise ValueError("mixed discriminants")

    def __add__(self, other: QuadElem) -> QuadElem:
        self._check(other)
        return QuadElem(self.disc, self.u + other.u, self.v + other.v)

    def __sub__(self, other: QuadElem) -> QuadElem:
        self._check(other)
        return QuadElem(self.disc, self.u - other.u, self.v - other.v)

    def __neg__(self) -> QuadElem:
        return QuadElem(self.disc, -self.u, -self.v)

    def __mul__(self, other: QuadElem | int) -> QuadElem:
        if isinstance(other, int):
            return QuadElem(self.disc, self.u * other, self.v * other)
        self._check(other)
        D = self.disc.D
        # (u1 + v1 s)(u2 + v2 s)/4 with s^2 = D; both halves stay integral
        # because D is odd and the parities match.
        u = (self.u * other.u + self.v * other.v * D) // 2
        v = (self.u * other.v + self.v * other.u) // 2
        return QuadElem(self.disc, u, v)

    __rmul__ = __mul__

    def conjugate(self) -> QuadElem:
        return QuadElem(self.disc, self.u, -self.v)

    def norm(self) -> int:
        """N(x) = x * x' = (u^2 - D v^2)/4, always an integer here."""
        n4 = self.u * self.u - self.disc.D * self.v * self.v
        return n4 // 4

    def trace(self) -> int:
        return self.u

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QuadElem)
            and self.disc == other.disc
            and self.u == other.u
            and self.v == other.v
        )

    def __hash__(self) -> int:
        return hash((self.disc.D, self.u, self.v))

    def __repr__(self) -> str:
        return f"QuadElem(D={self.disc.D}, ({self.u}+{self.v}*sqrt{self.disc.D})/2)"

    def __str__(self) -> str:
        return f"{self.u}+{self.v}*sqrt{self.disc.D}/2"


def omega(disc: Discriminant) -> QuadElem:
    """The standard generator (1 + sqrt(D))/2 of the ring of integers."""
    return QuadElem(disc, 1, 1)


def sqrt_disc(disc: Discriminant) -> QuadElem:
    """sqrt(D) itself, a generator of the different."""
    return QuadElem(disc, 0, 2)
