"""m-independent point sets and simplices in small projective spaces.

A point set lives in a coordinate model of its projective space: the
primal space of F_q^d, or the dual space (coordinates in the dual basis).
Points over a base space, as the embedding constructors use them, are
put into such a model by their frame coordinates (subspaces.frame),
which span the points' own space.

A set is m-independent when every m of its points span an m-dimensional
subspace.  An s-simplex is an s-independent set of s+1 points that is
not independent; its canonical form is s basis points together with
their sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .errors import ValidationError
from .fields import GF
from .grassmannian import check_pg_cap, lead_one_vectors, point_mask
from .subspaces import Subspace


@dataclass(frozen=True)
class Ambient:
    kind: str  # "primal" | "dual"
    field: GF
    dim: int

    def __post_init__(self):
        if self.kind not in ("primal", "dual"):
            raise ValidationError(f"unknown ambient kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class PointSet:
    """An ordered tuple of distinct projective points.

    Order matters to the embedding constructors (it fixes the ground-set
    labeling), but two point sets compare equal as configurations: same
    ambient, same set of points, any order.
    """

    ambient: Ambient
    points: tuple[Subspace, ...]

    def __post_init__(self):
        seen = set()
        for p in self.points:
            if p.dim != 1 or p.ambient_dim != self.ambient.dim:
                raise ValidationError("points must be lines of the ambient coordinate space")
            if p in seen:
                raise ValidationError("points must be pairwise distinct")
            seen.add(p)

    def __eq__(self, other):
        return (isinstance(other, PointSet) and self.ambient == other.ambient
                and frozenset(self.points) == frozenset(other.points))

    def __hash__(self):
        return hash((self.ambient, frozenset(self.points)))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def representatives(self) -> linalg.Matrix:
        return tuple(p.rows[0] for p in self.points)


def point_set(field: GF, vectors, kind: str = "primal") -> PointSet:
    vectors = [tuple(v) for v in vectors]
    if not vectors:
        raise ValidationError("empty point set")
    dim = len(vectors[0])
    return PointSet(Ambient(kind, field, dim),
                    tuple(Subspace.from_rows(field, dim, (v,)) for v in vectors))


def _subset_rank(F: GF, reps: linalg.Matrix, subset) -> int:
    return linalg.rank(F, tuple(reps[i] for i in subset))


def m_dependency_witness(ps: PointSet, m: int) -> tuple[int, ...] | None:
    """Indices of some m-subset spanning fewer than m dimensions, or None
    if the set is m-independent."""
    if m > len(ps):
        raise ValidationError(f"m={m} exceeds point count {len(ps)}")
    F = ps.ambient.field
    reps = ps.representatives()
    for subset in itertools.combinations(range(len(ps)), m):
        if _subset_rank(F, reps, subset) < m:
            return subset
    return None


def is_independent(ps: PointSet) -> bool:
    """Fully independent: the points span len(ps) dimensions."""
    F = ps.ambient.field
    return linalg.rank(F, ps.representatives()) == len(ps)


def simplex_rank(ps: PointSet) -> tuple[bool, int | None]:
    """(True, s) when the set is an s-simplex: s+1 points, s-independent,
    not independent.  Otherwise (False, None)."""
    s = len(ps) - 1
    if s < 1:
        return False, None
    if is_independent(ps):
        return False, None
    if m_dependency_witness(ps, min(s, len(ps))) is not None:
        return False, None
    return True, s


def canonical_simplex(field: GF, dim: int, s: int) -> PointSet:
    """The s-simplex on the first s basis points plus their sum."""
    if s > dim:
        raise ValidationError(f"no {s}-simplex fits in dimension {dim}")
    if s < 2:
        raise ValidationError("a simplex needs s >= 2")
    vectors = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(s)]
    vectors.append(tuple(1 if j < s else 0 for j in range(dim)))
    return point_set(field, vectors)


@dataclass(frozen=True)
class SearchResult:
    status: str  # "found" | "infeasible" | "unknown"
    points: PointSet | None
    nodes: int

    @property
    def found(self) -> bool:
        return self.status == "found"


def search_m_independent(ambient: Ambient, m: int, target_size: int,
                         budget: int = 1_000_000) -> SearchResult:
    """Backtracking search for an m-independent set of the target size.

    Extends greedily by the next projective point avoiding every span of
    m-1 already-chosen points, backtracking when stuck.  The forbidden
    points are kept per depth as a point bitset (bit i for the i-th point
    of :func:`~grassmannian.pg_points`, as in :func:`point_mask`, read as
    vectors from the memoized point table), so the next candidate
    is the lowest free bit at or above the scan start, found in one step;
    every point the scan passes over counts as one node.  Spans are
    memoized per sorted index tuple: a span of two points is its line's
    :func:`point_mask`, memoized per pair, and span(S + c) of three or
    more points is the union of the lines from c to the points of
    span(S), with no elimination.
    Exhausting the whole tree certifies infeasibility; exhausting the node
    budget does not, and is reported as "unknown" with budget + 1 nodes.
    """
    if target_size < 1:
        raise ValidationError("target size must be positive")
    if m < 1:
        raise ValidationError("m must be positive")
    if budget < 0:
        raise ValidationError(f"need a budget of at least 0 nodes, got {budget}")
    F, d = ambient.field, ambient.dim
    # the table outlives the call, so the cap is checked on every call
    check_pg_cap(F, d)
    universe = lead_one_vectors(F, d)[0]
    count = len(universe)
    everything = (1 << count) - 1
    line_cache: dict[tuple[int, int], int] = {}
    span_cache: dict[tuple[int, ...], int] = {}

    def line(a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        mask = line_cache.get(key)
        if mask is None:
            rows = (universe[a], universe[b])
            mask = line_cache[key] = point_mask(Subspace.from_rows(F, d, rows))
        return mask

    def span_points(indices: tuple[int, ...]) -> int:
        # called on a memo miss; the prefix is joined in a plain loop, since
        # a closure that calls itself would keep the memo in a reference cycle
        if len(indices) == 1:
            mask = 1 << indices[0]
        else:
            mask = line(indices[0], indices[1])
            for c in indices[2:]:
                rest, mask = mask, 0
                while rest:
                    low = rest & -rest
                    mask |= line(low.bit_length() - 1, c)
                    rest ^= low
        span_cache[indices] = mask
        return mask

    def forbidden_after(chosen: list[int], forbidden: int, cand: int) -> int:
        """Points unusable once cand joins chosen.  Candidates rise, so
        chosen + cand is already a sorted span key."""
        if m == 1:
            return forbidden | 1 << cand
        cached = span_cache.get
        if len(chosen) < m - 2:
            key = (*chosen, cand)
            mask = cached(key)
            return span_points(key) if mask is None else mask
        for subset in itertools.combinations(chosen, m - 2):
            key = subset + (cand,)
            mask = cached(key)
            forbidden |= span_points(key) if mask is None else mask
        return forbidden

    nodes = start = 0
    chosen: list[int] = []
    forbidden_stack: list[int] = [0]
    while True:
        if len(chosen) == target_size:
            # a vector led by 1 is the RREF basis of its point
            points = tuple(Subspace(F, d, (universe[i],)) for i in chosen)
            return SearchResult("found", PointSet(ambient, points), nodes)
        forbidden = forbidden_stack[-1]
        free = (everything & ~forbidden) >> start << start
        if free:
            cand = (free & -free).bit_length() - 1
            nodes += cand - start + 1
        else:
            nodes += count - start
        if nodes > budget:
            return SearchResult("unknown", None, budget + 1)
        if free:
            forbidden_stack.append(forbidden_after(chosen, forbidden, cand))
            chosen.append(cand)
        elif not chosen:
            return SearchResult("infeasible", None, nodes)
        else:
            cand = chosen.pop()
            forbidden_stack.pop()
        start = cand + 1
