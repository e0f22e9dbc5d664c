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

The search for an m-independent set, :func:`search_m_independent`, is
forward-checked; its docstring gives the rule it prunes by.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .errors import ValidationError
from .fields import GF
from .grassmannian import check_pg_cap, lead_one_vectors, point_ids
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


def _free_by_lines(row: dict[int, int], line, cand: int, above: int, avoid: int) -> int:
    """The points of above whose line to cand misses avoid: one line lookup
    per point of above.  row holds the lines through cand computed so far,
    keyed by their other points; line(cand, p) computes a missing one."""
    free = 0
    while above:
        low = above & -above
        above ^= low
        point = low.bit_length() - 1
        try:
            mask = row[point]
        except KeyError:
            mask = line(cand, point)
        if not mask & avoid:
            free |= low
    return free


def _join(row: dict[int, int], line, cand: int, span: int) -> int:
    """cand and the lines from cand to every point of span, which is the
    span of cand and S when span is that of S: one line lookup per point of
    span, with row and line as in :func:`_free_by_lines`."""
    joined = 1 << cand
    while span:
        low = span & -span
        span ^= low
        point = low.bit_length() - 1
        try:
            joined |= row[point]
        except KeyError:
            joined |= line(cand, point)
    return joined


def _free_by_join(row: dict[int, int], line, cand: int, above: int, avoid: int) -> int:
    """The points of :func:`_free_by_lines`, as those of above off every
    line from cand to a point of avoid: one line lookup per point of avoid."""
    return above & ~_join(row, line, cand, avoid)


def search_m_independent(ambient: Ambient, m: int, target_size: int,
                         budget: int = 1_000_000) -> SearchResult:
    """Backtracking search for an m-independent set of the target size.

    Extends the chosen set S by its lowest free point above the last one,
    backtracking when none is left.  A point is free when it lies in the
    span of no m - 1 points of S (of S itself while S is smaller).  Point
    sets are bitsets (bit i for the i-th point of
    :func:`~grassmannian.pg_points`, the numbering of
    :func:`~grassmannian.point_ids`);
    the scan jumps to the lowest free bit, and every point it passes over
    counts as one node.  Exhausting the whole tree certifies
    infeasibility; exhausting the node budget does not, and is reported as
    "unknown" with budget + 1 nodes.

    The search is forward-checked.  Each node keeps R, its free points
    above its last chosen point, and levels L_1, ..., L_(m-2): L_i is the
    union of the spans of the i-subsets of S, or span(S) while S has fewer
    than i points.  Lemma: if c is outside span(T) and c' != c, then c'
    lies in span(T + c) exactly when the line through c and c' meets
    span(T).  (If c' = t + ac with t in span(T), then t != 0 as c' != c,
    and t = c' - ac is on the line.  If t = bc + b'c' is in span(T), then
    b' != 0 as c is outside span(T), so c' = (t - bc)/b' is in span(T + c).)
    A free point c is outside X = L_(m-2), so once c joins S the free
    points are

        R' = {c' in R : c' > c, the line through c and c' misses X},

    and each L_i grows by the join of c with L_(i-1): c and the lines from
    c to the points of L_(i-1), with L_0 empty (X is empty for m <= 2).
    R' comes from whichever filter takes fewer line lookups: one per
    point of R above c (:func:`_free_by_lines`) or one per point of X
    (:func:`_free_by_join`), ties to the first.  The pick compares point
    counts, so it is deterministic.

    Leaf level: a node two levels above the target does not push its
    children.  For each child c it computes R'; the lowest point of a
    nonempty R' completes a found set, and a child with an empty R' is
    charged the count - c - 1 points its scan would pass over.  The tree,
    every node count, the found set and the budget cut-off are those of
    the plain scan.

    Lines are memoized per call: a point that looks a line up gets a dict
    from the points of the lines through it to those lines, and a computed
    line goes into the dicts of all its points that have one.  No other
    span is built by elimination.
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
    rows: list[dict[int, int] | None] = [None] * count

    def line_row(a: int) -> dict[int, int]:
        row = rows[a]
        if row is None:
            row = rows[a] = {}
        return row

    def line(a: int, b: int) -> int:
        """Compute the line through a and b, which row a lacks."""
        on_line = point_ids(Subspace.from_rows(F, d, (universe[a], universe[b])))
        mask = sum(1 << p for p in on_line)
        for x in on_line:
            row = rows[x]
            if row is not None:
                for p in on_line:
                    row[p] = mask
        return mask

    def child_free(cand: int, above: int) -> int:
        """R' once cand joins chosen, from above = the points of R above cand."""
        if not above:
            return 0
        x = level_stack[-1][-1]
        filtered = _free_by_lines if above.bit_count() <= x.bit_count() else _free_by_join
        return filtered(line_row(cand), line, cand, above, x)

    def child_levels(cand: int) -> tuple[int, ...]:
        """L_0, ..., L_(m-2) once cand joins chosen."""
        levels = level_stack[-1]
        row = line_row(cand)
        return (0, *[upper | _join(row, line, cand, lower)
                     for lower, upper in zip(levels, levels[1:])])

    def found(indices) -> SearchResult:
        # a vector led by 1 is the RREF basis of its point
        points = tuple(Subspace(F, d, (universe[i],)) for i in indices)
        return SearchResult("found", PointSet(ambient, points), nodes)

    nodes = start = 0
    chosen: list[int] = []
    r_stack = [(1 << count) - 1]
    level_stack = [(0,) * max(1, m - 1)]
    leaf_parent = target_size - 2
    while True:
        free = r_stack[-1] >> start << start
        depth = len(chosen)
        if depth == leaf_parent:
            while free:
                low = free & -free
                free ^= low
                cand = low.bit_length() - 1
                child = child_free(cand, free)
                if child:
                    # the child's scan stops at its lowest free point
                    last = (child & -child).bit_length() - 1
                    nodes += last - start + 1
                    if nodes > budget:
                        return SearchResult("unknown", None, budget + 1)
                    return found((*chosen, cand, last))
                # the scans of this node up to cand and of the child to the end
                nodes += count - start
                if nodes > budget:
                    return SearchResult("unknown", None, budget + 1)
                start = cand + 1
        elif free:
            cand = (free & -free).bit_length() - 1
            nodes += cand - start + 1
            if nodes > budget:
                return SearchResult("unknown", None, budget + 1)
            if depth + 1 == target_size:  # a target of one point
                return found((cand,))
            child = child_free(cand, free ^ (free & -free))
            r_stack.append(child)
            # a child without free points has no children to read its levels
            level_stack.append(child_levels(cand) if child else None)
            chosen.append(cand)
            start = cand + 1
            continue
        nodes += count - start
        if nodes > budget:
            return SearchResult("unknown", None, budget + 1)
        if not chosen:
            return SearchResult("infeasible", None, nodes)
        start = chosen.pop() + 1
        r_stack.pop()
        level_stack.pop()
