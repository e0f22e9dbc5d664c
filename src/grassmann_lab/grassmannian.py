"""The Grassmann graph on k-dimensional subspaces of F_q^n.

Vertices are adjacent when their intersection has dimension k-1, and the
graph distance is k - dim(S meet U).  This module enumerates the
vertices and projective points, indexes them densely, and gives
distances by elimination or by point incidence.
"""

from __future__ import annotations

import functools
import itertools

from . import linalg
from .config import caps, check_ambient_dim
from .errors import CapExceededError, InternalInvariantError, ValidationError
from .fields import GF
from .subspaces import Subspace


def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def iter_rref_bases(field: GF, n: int, k: int):
    """Yield the RREF basis rows of every k-subspace of F_q^n.

    Streams tuples without materializing anything, so callers can count
    large Grassmannians without building an index.
    """
    if k < 0 or k > n:
        return
    if k == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        free = [(i, c) for i in range(k) for c in range(pivots[i] + 1, n)
                if c not in pivot_set]
        template = [[0] * n for _ in range(k)]
        for i, p in enumerate(pivots):
            template[i][p] = 1
        if not free:
            yield tuple(tuple(row) for row in template)
            continue
        for values in itertools.product(field.elements(), repeat=len(free)):
            rows = [row[:] for row in template]
            for (i, c), v in zip(free, values):
                rows[i][c] = v
            yield tuple(tuple(row) for row in rows)


def pg_points(field: GF, dim: int) -> list[Subspace]:
    """All points of the projective space of F_q^dim, via normalized
    representatives (first nonzero coordinate 1).  PG(dim-1, q) is the
    Grassmannian of lines, so its size is held to the same vertex cap."""
    count = (field.q ** dim - 1) // (field.q - 1)
    if count > caps().graph_vertex_max:
        raise CapExceededError(f"PG({dim - 1}, {field.q}) with {count} points exceeds "
                               f"cap {caps().graph_vertex_max}")
    return [Subspace(field, dim, rows) for rows in iter_rref_bases(field, dim, 1)]


@functools.cache
def _lead_one_vectors(field: GF, dim: int) -> tuple[tuple[linalg.Vector, ...], dict]:
    """The vectors of F_q^dim whose first nonzero entry is 1, in
    :func:`pg_points` order, and the inverse map vector -> position;
    memoized per (field, dim)."""
    vectors = tuple(p.rows[0] for p in pg_points(field, dim))
    return vectors, {v: b for b, v in enumerate(vectors)}


def point_mask(s: Subspace) -> int:
    """The projective points of s as an int with one bit per point of
    F_q^n, numbered in :func:`pg_points` order.

    A coefficient vector c whose first nonzero entry is 1 gives the span
    vector c·rows whose first nonzero entry is 1 too, because the rows are
    in RREF; so each point is built once, already normalized.
    """
    F = s.field
    coeffs = _lead_one_vectors(F, s.dim)[0]
    bit = _lead_one_vectors(F, s.ambient_dim)[1]
    return sum(1 << bit[linalg.vecmat(F, c, s.rows)] for c in coeffs)


class GrassmannianSpec:
    """An enumerated Grassmannian with a dense, deterministic vertex index.

    Subspaces are ordered lexicographically by their RREF rows; the
    bidirectional index maps them to ids in that order.  Instances are
    immutable after build and safe to share across threads.
    """

    def __init__(self, field: GF, n: int, k: int):
        check_ambient_dim(n)
        if not 0 <= k <= n:
            raise ValidationError(f"need 0 <= k <= n, got k={k}, n={n}")
        expected = gaussian_binomial(n, k, field.q)
        if expected > caps().graph_vertex_max:
            raise CapExceededError(
                f"Grassmannian with {expected} vertices exceeds cap {caps().graph_vertex_max}")
        self.field = field
        self.n = n
        self.k = k
        bases = sorted(iter_rref_bases(field, n, k))
        self.subspaces: tuple[Subspace, ...] = tuple(
            Subspace(field, n, rows) for rows in bases)
        if len(self.subspaces) != expected:
            raise InternalInvariantError(
                f"enumerated {len(self.subspaces)} subspaces, expected {expected}")
        self.index: dict[Subspace, int] = {s: i for i, s in enumerate(self.subspaces)}
        self._dist: list[bytes] | None = None
        self._dist_sets: list[tuple[int, ...]] | None = None

    def __len__(self):
        return len(self.subspaces)

    def id_of(self, s: Subspace) -> int:
        try:
            return self.index[s]
        except KeyError:
            raise ValidationError("subspace is not a vertex of this Grassmannian") from None

    def by_id(self, i: int) -> Subspace:
        return self.subspaces[i]

    def distance_matrix(self) -> list[bytes]:
        """Row i is a bytes object with the distance from vertex i to every
        vertex; computed once, by point incidence.

        A d-dimensional subspace holds (q^d - 1)/(q - 1) projective points,
        so the number of points two vertices share gives the dimension d of
        their meet, and their distance is k - d (Brouwer, Cohen & Neumaier,
        *Distance-Regular Graphs*, 1989, section 9.3).  Each entry is one
        popcount of two point masks; no elimination, one path for every q.
        """
        if self._dist is None:
            if len(self.subspaces) == 1:
                # k == 0 or k == n: one vertex, and listing the points of
                # F_q^n could cost far more than any cap allows
                self._dist = [bytes(1)]
                return self._dist
            q, k = self.field.q, self.k
            lut = bytearray((q ** k - 1) // (q - 1) + 1)
            for d in range(k + 1):
                lut[(q ** d - 1) // (q - 1)] = k - d
            masks = [point_mask(s) for s in self.subspaces]
            self._dist = [bytes([lut[(mi & mj).bit_count()] for mj in masks])
                          for mi in masks]
        return self._dist

    def distance_sets(self) -> list[tuple[int, ...]]:
        """distance_sets()[i][d] is the int bitset of vertex ids at distance
        d from vertex i (bit j set for vertex j); the oracle prunes with
        these."""
        if self._dist_sets is None:
            diam = min(self.k, self.n - self.k)
            # row.translate(digits[d]) has "1" where the row holds d and "0"
            # elsewhere; reversed, it is that bitset written in binary
            digits = [bytes(49 if x == d else 48 for x in range(256))
                      for d in range(diam + 1)]
            self._dist_sets = [tuple(int(row.translate(t)[::-1], 2) for t in digits)
                               for row in self.distance_matrix()]
        return self._dist_sets


def distance(s: Subspace, u: Subspace) -> int:
    s._check_compatible(u)
    if s.dim != u.dim:
        raise ValidationError(f"dimension mismatch: {s.dim} vs {u.dim}")
    return linalg.rank(s.field, s.rows + u.rows) - s.dim


def distance_rows(spaces) -> list[bytearray]:
    """rows[i][j] is the distance between spaces[i] and spaces[j], for
    a family of subspaces the caller has in hand; one :func:`distance`
    call per unordered pair."""
    spaces = list(spaces)
    rows = [bytearray(len(spaces)) for _ in spaces]
    for i, s in enumerate(spaces):
        for j in range(i + 1, len(spaces)):
            rows[i][j] = rows[j][i] = distance(s, spaces[j])
    return rows
