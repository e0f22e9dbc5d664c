"""Exact arithmetic over GF(p^e).

Field elements are plain ints in ``range(q)``: the base-p digits of an
element are the coefficients of its polynomial residue, least significant
digit first, so ``a == sum(c * p**i for i, c in enumerate(coeffs(a)))``.
For e == 1 this is ordinary arithmetic mod p.

Extension fields reduce modulo the canonical irreducible polynomial of
degree e: the monic irreducible whose integer encoding (same digit
convention, including the leading 1) is smallest.  Irreducibility is
certified at construction by trial division.

All operations are table lookups after construction; a ``GF`` instance is
immutable and safe to share between threads.  ``GF.get(p, e)`` memoizes
instances so field identity checks are cheap.
"""

from __future__ import annotations

from .config import caps
from .errors import ValidationError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mul_mod_p(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_mod(a: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    # mod is monic; reduce a in place.
    a = list(a)
    dm = len(mod) - 1
    while len(a) - 1 >= dm and a:
        if a[-1]:
            lead = a[-1]
            shift = len(a) - 1 - dm
            for i, c in enumerate(mod):
                a[shift + i] = (a[shift + i] - lead * c) % p
        while a and a[-1] == 0:
            a.pop()
    return tuple(a)


def _digits(value: int, p: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return tuple(out)


def _encode(coeffs: tuple[int, ...], p: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * p + c
    return value


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree up to deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for enc in range(p ** d):
            divisor = _digits(enc, p, d) + (1,)
            if not _poly_mod(poly, divisor, p):
                return False
    return True


def canonical_modulus(p: int, e: int) -> tuple[int, ...]:
    """Smallest-encoding monic irreducible of degree e over GF(p)."""
    for enc in range(p ** e):
        poly = _digits(enc, p, e) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise ValidationError(f"no irreducible polynomial of degree {e} over GF({p})")


_instances: dict[tuple[int, int], "GF"] = {}


class GF:
    """The field GF(p^e) with int-encoded elements.

    Use :meth:`GF.get` rather than the constructor so equal parameters
    share one instance.
    """

    def __init__(self, p: int, e: int = 1):
        cap = caps().q_max
        # compare with the cap before trial division or p ** e, which take
        # unbounded time on hostile input
        if p > cap:
            raise ValidationError(f"characteristic {p} exceeds the field order cap {cap}")
        if not is_prime(p):
            raise ValidationError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValidationError(f"extension degree {e} must be >= 1")
        if e >= cap.bit_length() or p ** e > cap:  # p ** e >= 2 ** e > cap
            raise ValidationError(f"field order {p}^{e} exceeds cap {cap}")
        q = p ** e
        self.p = p
        self.e = e
        self.q = q
        self.modulus = canonical_modulus(p, e)

        mul = [[0] * q for _ in range(q)]
        add = [[0] * q for _ in range(q)]
        for a in range(q):
            da = _digits(a, p, e)
            for b in range(a, q):
                db = _digits(b, p, e)
                s = tuple((x + y) % p for x, y in zip(da, db))
                add[a][b] = add[b][a] = _encode(s, p)
                prod = _poly_mod(_poly_mul_mod_p(da, db, p), self.modulus, p)
                enc = _encode(prod + (0,) * (e - len(prod)), p)
                mul[a][b] = mul[b][a] = enc
        self._add = tuple(tuple(r) for r in add)
        self._mul = tuple(tuple(r) for r in mul)
        self._neg = tuple(next(b for b in range(q) if self._add[a][b] == 0) for a in range(q))
        inv = [0] * q
        for a in range(1, q):
            inv[a] = next(b for b in range(1, q) if self._mul[a][b] == 1)
        self._inv = tuple(inv)
        # frobenius_table[t][a] = a ** (p ** t)
        frob = [tuple(range(q))]
        for _ in range(1, e):
            prev = frob[-1]
            frob.append(tuple(self.pow(prev[a], p) for a in range(q)))
        self._frob = tuple(frob)

    @staticmethod
    def get(p: int, e: int = 1) -> "GF":
        field = _instances.get((p, e))
        if field is None:
            field = _instances[(p, e)] = GF(p, e)
        elif field.q > caps().q_max:  # the cap may have been lowered since
            raise ValidationError(f"field order {field.q} exceeds cap {caps().q_max}")
        return field

    def __repr__(self):
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return self is other or (isinstance(other, GF) and (self.p, self.e) == (other.p, other.e))

    def __hash__(self):
        return hash((self.p, self.e))

    # arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._inv[a]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inv(a), -n
        out = 1
        while n:
            if n & 1:
                out = self._mul[out][a]
            a = self._mul[a][a]
            n >>= 1
        return out

    def frobenius(self, a: int, t: int = 1) -> int:
        """a ** (p ** t); t is reduced mod e."""
        return self._frob[t % self.e][a]

    # structure --------------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Polynomial residue coefficients of a, constant term first."""
        return _digits(a, self.p, self.e)

    def automorphisms(self) -> list[int]:
        """Frobenius exponents t of all field automorphisms x -> x^(p^t)."""
        return list(range(self.e))
