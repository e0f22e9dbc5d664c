"""Canonical subspaces of F_q^n and semilinear maps acting on them.

A :class:`Subspace` stores its reduced-row-echelon basis, so two values
compare equal exactly when they are the same set of vectors, and hashing
respects that.  The dual space is coordinatized by the standard dual
basis, which turns the annihilator into a null-space computation and
makes the double annihilator literally the identity.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from dataclasses import dataclass, field as dc_field

from . import linalg
from .errors import ValidationError
from .fields import GF
from .linalg import Matrix, Vector


@dataclass(frozen=True)
class Subspace:
    field: GF
    ambient_dim: int
    rows: Matrix  # RREF, no zero rows, pivots strictly increasing
    _hash: int = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_hash",
            hash((self.field.p, self.field.e, self.ambient_dim, self.rows)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (self is other) or (
            isinstance(other, Subspace)
            and self._hash == other._hash
            and self.rows == other.rows
            and self.ambient_dim == other.ambient_dim
            and self.field == other.field)

    def __repr__(self):
        return f"Subspace({self.field}, n={self.ambient_dim}, rows={self.rows})"

    # construction ----------------------------------------------------

    @staticmethod
    def from_rows(field: GF, ambient_dim: int, rows) -> "Subspace":
        """Canonicalize arbitrary spanning rows (zero rows allowed)."""
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        for r in rows:
            if len(r) != ambient_dim:
                raise ValidationError(f"row length {len(r)} != ambient dim {ambient_dim}")
            if any(not (0 <= x < field.q) for x in r):
                raise ValidationError("entry outside field range")
        if not rows:
            return Subspace(field, ambient_dim, ())
        return _span(field, ambient_dim, rows)

    @staticmethod
    def zero(field: GF, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, ())

    @staticmethod
    @functools.cache
    def full(field: GF, ambient_dim: int) -> "Subspace":
        """F_q^n, one object per (field, n): every meet folds from it."""
        return Subspace(field, ambient_dim, linalg.identity(ambient_dim))

    @staticmethod
    def line(field: GF, vector) -> "Subspace":
        return Subspace.from_rows(field, len(vector), (tuple(vector),))

    # queries -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains_vector(self, v: Vector) -> bool:
        return linalg.rank(self.field, self.rows + (tuple(v),)) == self.dim

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return linalg.rank(self.field, self.rows + other.rows) == self.dim

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field:
            raise ValidationError(f"field mismatch: {self.field} vs {other.field}")
        if self.ambient_dim != other.ambient_dim:
            raise ValidationError(
                f"ambient mismatch: {self.ambient_dim} vs {other.ambient_dim}")


_MEMO = contextvars.ContextVar("subspaces.memo", default=None)  # a dict inside memoized()


@contextlib.contextmanager
def memoized():
    """Inside the block, each memoized function runs once per distinct
    arguments: pairwise sums and meets, frames, annihilators and the
    rigidity solver's source inverses.  Equal Subspace results are one
    object for the whole block, so later lookups keyed on them match by
    identity.  The memo is dropped when the block ends, so it lives for
    one request, never for the process."""
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def intern(spaces) -> None:
    """File spaces in the memo of an enclosing memoized() block, each keyed
    by itself, so a memoized result equal to one of them is that object;
    outside a block nothing happens."""
    table = _MEMO.get()
    if table is not None:
        for s in spaces:
            table.setdefault(s, s)


def memo(fn):
    """fn(*args), looked up in the memo of an enclosing memoized() block.
    For pure functions of hashable arguments with immutable results, which
    callers then share; outside a block fn runs as it is.

    A Subspace result is interned in the same table, keyed by itself: a
    sum, meet or annihilator equal to one the block already holds, reached
    through other arguments, is returned as that object."""
    @functools.wraps(fn)
    def lookup(*args):
        table = _MEMO.get()
        if table is None:
            return fn(*args)
        key = (fn, *args)
        out = table.get(key)
        if out is None:
            out = fn(*args)
            if isinstance(out, Subspace):
                out = table.setdefault(out, out)
            table[key] = out
        return out
    return lookup


@memo
def sum_subspaces(s: Subspace, u: Subspace) -> Subspace:
    return sum_many(s.field, s.ambient_dim, (s, u))


def sum_many(field: GF, ambient_dim: int, spaces) -> Subspace:
    """The sum of spaces of F_q^n: their rows are valid already, so one
    rref canonicalizes them (from_rows validates rows from outside)."""
    rows = []
    for sp in spaces:
        if sp.field != field or sp.ambient_dim != ambient_dim:
            raise ValidationError(
                f"a space of {sp.field}^{sp.ambient_dim} in a sum over {field}^{ambient_dim}")
        rows += sp.rows
    return _span(field, ambient_dim, tuple(rows))


def _span(field: GF, ambient_dim: int, rows: Matrix) -> Subspace:
    """The span of rows the package made itself: one rref, no entry checks."""
    reduced, rank, _ = linalg.rref(field, rows)
    return Subspace(field, ambient_dim, reduced[:rank])


@memo
def annihilator(s: Subspace) -> Subspace:
    """All dual vectors vanishing on s, in standard dual coordinates.

    An involution: annihilator(annihilator(s)) == s.
    """
    rows = linalg.nullspace(s.field, s.rows, s.ambient_dim)
    return Subspace(s.field, s.ambient_dim, rows)


@memo
def intersect_subspaces(s: Subspace, u: Subspace) -> Subspace:
    """The Zassenhaus meet: one rref of the rows [x | x] of s over [y | 0]
    of u.  A combination (x + y | x) has left half 0 exactly when x = -y
    lies in both, so the right halves of the rows pivoting in the right
    half are the meet's basis, already in RREF."""
    s._check_compatible(u)
    if s is u or s == u or u.dim == u.ambient_dim:
        return s
    if s.dim == s.ambient_dim:
        return u
    n = s.ambient_dim
    reduced, _, pivots = linalg.rref(
        s.field, tuple(r + r for r in s.rows) + tuple(r + (0,) * n for r in u.rows))
    return Subspace(s.field, n, tuple(row[n:] for row, c in zip(reduced, pivots) if c >= n))


def intersect_many(field: GF, ambient_dim: int, spaces) -> Subspace:
    """The meet of the spaces, folded from the full space."""
    return functools.reduce(intersect_subspaces, spaces, Subspace.full(field, ambient_dim))


# quotient and section coordinates -------------------------------------


def complement_columns(m: Subspace) -> tuple[int, ...]:
    """Non-pivot columns of m; the standard basis vectors there complete
    m's basis to a basis of the ambient space."""
    pivots = {next(i for i, x in enumerate(row) if x) for row in m.rows}
    return tuple(c for c in range(m.ambient_dim) if c not in pivots)


@memo
def frame(base: Subspace, spaces: tuple[Subspace, ...]):
    """The spaces, each containing base with at most one dimension more,
    as points over base: a representative of each (zero for base itself),
    the greedy basis of the points as point indices, and each point's
    coordinates in that basis modulo base, all as tuples.

    One rref of base's rows and the representatives, taken as columns,
    gives both: its pivots past base's rows are the basis, and column j
    holds the coordinates of point j.
    """
    h = base.dim
    reps = []
    for s in spaces:
        if s.dim > h + 1:
            raise ValidationError(f"a {s.dim}-space is not a point over a {h}-space")
        reps.append(next((row for row in s.rows if not base.contains_vector(row)),
                         (0,) * base.ambient_dim))
    reduced, rank, pivots = linalg.rref(base.field, linalg.transpose(base.rows + tuple(reps)))
    coords = tuple(tuple(reduced[i][h + j] for i in range(h, rank)) for j in range(len(reps)))
    return tuple(reps), tuple(p - h for p in pivots[h:]), coords


def lift_from_quotient(m: Subspace, rows_q: Matrix) -> Subspace:
    """The subspace of V spanned by m and the quotient rows, lifted into
    the complement columns of m."""
    free = complement_columns(m)
    n = m.ambient_dim
    lifted = []
    for row in rows_q:
        if len(row) != len(free):
            raise ValidationError(
                f"quotient row of length {len(row)}, expected {len(free)} coordinates")
        v = [0] * n
        for c, x in zip(free, row):
            v[c] = x
        lifted.append(tuple(v))
    return Subspace.from_rows(m.field, n, m.rows + tuple(lifted))


def from_coords_in(n_space: Subspace, rows: Matrix) -> Subspace:
    """The subspace of n_space with the given rows of coefficients against
    n_space's RREF basis."""
    F = n_space.field
    for r in rows:
        if len(r) != n_space.dim:
            raise ValidationError(
                f"coordinate row of length {len(r)} in a {n_space.dim}-space")
    lifted = tuple(linalg.vecmat(F, r, n_space.rows) for r in rows)
    return Subspace.from_rows(F, n_space.ambient_dim, lifted)


# semilinear maps -------------------------------------------------------


@dataclass(frozen=True)
class SemilinearMap:
    """x -> sigma(x) @ matrix with sigma the Frobenius power a -> a^(p^t)."""

    field: GF
    matrix: Matrix
    sigma: int = 0

    def __post_init__(self):
        if not linalg.is_invertible(self.field, self.matrix):
            raise ValidationError("semilinear map requires an invertible matrix")

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def apply_vector(self, x: Vector) -> Vector:
        return linalg.vecmat(self.field, linalg.frobenius_vec(self.field, x, self.sigma),
                             self.matrix)

    def apply(self, s: Subspace) -> Subspace:
        if s.ambient_dim != self.dim or s.field != self.field:
            raise ValidationError("dimension or field mismatch applying semilinear map")
        return _span(s.field, s.ambient_dim, tuple(self.apply_vector(r) for r in s.rows))


def contragredient(u: SemilinearMap) -> SemilinearMap:
    """The map on dual coordinates with contragredient(u)(S^0) == u(S)^0.

    In coordinates this is the inverse transpose with the same Frobenius
    twist; applying it twice returns the original map.
    """
    inv_t = linalg.transpose(linalg.inverse(u.field, u.matrix))
    return SemilinearMap(u.field, inv_t, u.sigma)
