"""The Grassmann graph on k-dimensional subspaces of F_q^n.

Vertices are adjacent when their intersection has dimension k-1, and the
graph distance is k - dim(S meet U).  This module enumerates the
vertices and projective points, indexes them densely, and gives
distances by elimination or by point incidence.

The distance table is built from point incidence.  A d-dimensional
subspace holds [d]_q = (q^d - 1)/(q - 1) projective points, so the number
of points two vertices share is [dim(S meet U)]_q (Brouwer, Cohen &
Neumaier, *Distance-Regular Graphs*, 1989, section 9.3).  For each vertex
those counts are summed against every vertex at once, as bitsets: one
big-int carry-save pass per point of the vertex, O(V [k]_q) big-int
operations in all for V vertices, and no elimination or per-pair loop.
The classes at each distance are the primary table; the byte matrix is
derived from them on request.
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


def check_pg_cap(field: GF, dim: int) -> None:
    """PG(dim-1, q) is the Grassmannian of lines, so its [dim]_q points are
    held to the same vertex cap."""
    count = (field.q ** dim - 1) // (field.q - 1)
    if count > caps().graph_vertex_max:
        raise CapExceededError(f"PG({dim - 1}, {field.q}) with {count} points exceeds "
                               f"cap {caps().graph_vertex_max}")


def pg_points(field: GF, dim: int) -> list[Subspace]:
    """All points of the projective space of F_q^dim, via normalized
    representatives (first nonzero coordinate 1), within the vertex cap."""
    check_pg_cap(field, dim)
    return [Subspace(field, dim, rows) for rows in iter_rref_bases(field, dim, 1)]


@functools.cache
def lead_one_vectors(field: GF, dim: int) -> tuple[tuple[linalg.Vector, ...], dict]:
    """The vectors of F_q^dim whose first nonzero entry is 1, in
    :func:`pg_points` order, and the inverse map vector -> position;
    memoized per (field, dim)."""
    check_pg_cap(field, dim)
    vectors = tuple(rows[0] for rows in iter_rref_bases(field, dim, 1))
    return vectors, {v: b for b, v in enumerate(vectors)}


def point_ids(s: Subspace) -> list[int]:
    """The positions in :func:`pg_points` order of the projective points
    of s.

    A coefficient vector c whose first nonzero entry is 1 gives the span
    vector c·rows whose first nonzero entry is 1 too, because the rows are
    in RREF; so each point is built once, already normalized.
    """
    F = s.field
    coeffs = lead_one_vectors(F, s.dim)[0]
    position = lead_one_vectors(F, s.ambient_dim)[1]
    return [position[linalg.vecmat(F, c, s.rows)] for c in coeffs]


class GrassmannianSpec:
    """An enumerated Grassmannian with dense, deterministic vertex ids.

    Subspaces are ordered lexicographically by their RREF rows, and
    vertex i is subspaces[i].  Instances are immutable after build and
    safe to share across threads.
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
        self._dist: list[bytes] | None = None
        self._dist_sets: list[tuple[int, ...]] | None = None

    def __len__(self):
        return len(self.subspaces)

    def by_id(self, i: int) -> Subspace:
        return self.subspaces[i]

    def distance_sets(self) -> list[tuple[int, ...]]:
        """distance_sets()[i][d] is the int bitset of vertex ids at distance
        d from vertex i (bit j set for vertex j), for d = 0..min(k, n - k);
        computed once, by point incidence.  The oracle prunes with these.

        star[p] is the bitset of vertices through projective point p.  For
        each vertex S, adding the stars of its [k]_q points counts, for
        every vertex T at once, the points that T shares with S.  The sum
        runs in a bit-sliced counter: plane j holds binary digit j of every
        count, and adding a star is a carry-save pass over the planes.  A
        count of (q^d - 1)/(q - 1) means dim(S meet T) = d, so the class at
        distance k - d is the set of vertices whose digits spell that count.
        """
        if self._dist_sets is None:
            if len(self.subspaces) == 1:
                # k == 0 or k == n: one vertex, and listing the points of
                # F_q^n could cost far more than any cap allows
                self._dist_sets = [(1,)]
                return self._dist_sets
            q, k, size = self.field.q, self.k, len(self.subspaces)
            points = [point_ids(s) for s in self.subspaces]
            star = [0] * ((q ** self.n - 1) // (q - 1))
            for i, pts in enumerate(points):
                for p in pts:
                    star[p] |= 1 << i
            full = (1 << size) - 1
            width = ((q ** k - 1) // (q - 1)).bit_length()
            counts = [(q ** (k - d) - 1) // (q - 1)
                      for d in range(min(k, self.n - k) + 1)]
            sets = []
            for pts in points:
                planes = [0] * width
                for p in pts:
                    carry, j = star[p], 0
                    while carry:
                        planes[j], carry = planes[j] ^ carry, planes[j] & carry
                        j += 1
                off = [full ^ plane for plane in planes]
                classes = []
                for count in counts:
                    match = full
                    for j in range(width):
                        match &= planes[j] if count >> j & 1 else off[j]
                    classes.append(match)
                sets.append(tuple(classes))
            # assigned whole, so a concurrent reader never sees a partial table
            self._dist_sets = sets
        return self._dist_sets

    def distance_matrix(self) -> list[bytes]:
        """Row i is a bytes object with the distance from vertex i to every
        vertex, derived once from :meth:`distance_sets`.

        format writes a class as a numeral of "0" and "1" characters, one
        per vertex; read back as bytes, less the all-"0" numeral, it holds
        byte 1 exactly at the class's vertices.  d times that, summed over
        the disjoint classes, is the row, least significant byte first.
        """
        if self._dist is None:
            size = len(self.subspaces)
            zeros = int.from_bytes(b"0" * size, "big")
            spread = f"0{size}b"
            self._dist = [
                sum(d * (int.from_bytes(format(bits, spread).encode(), "big") - zeros)
                    for d, bits in enumerate(classes[1:], 1)).to_bytes(size, "little")
                for classes in self.distance_sets()]
        return self._dist


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
