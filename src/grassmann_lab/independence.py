"""m-independent point sets and simplices in small projective spaces.

A point set is a field and a tuple of coordinate rows, one nonzero row
per point.  Points over a base space, as the embedding constructors use
them, are read as the coordinates of their frame (subspaces.frame),
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


def m_dependency_witness(F: GF, rows: linalg.Matrix, m: int) -> tuple[int, ...] | None:
    """Indices of some m of the points spanning fewer than m dimensions,
    or None if the set is m-independent."""
    if m > len(rows):
        raise ValidationError(f"m={m} exceeds point count {len(rows)}")
    for subset in itertools.combinations(range(len(rows)), m):
        if linalg.rank(F, tuple(rows[i] for i in subset)) < m:
            return subset
    return None


def is_independent(F: GF, rows: linalg.Matrix) -> bool:
    """Fully independent: the points span len(rows) dimensions."""
    return linalg.rank(F, rows) == len(rows)


def simplex_rank(F: GF, rows: linalg.Matrix) -> tuple[bool, int | None]:
    """(True, s) when the set is an s-simplex: s+1 points, s-independent,
    not independent.  Otherwise (False, None)."""
    s = len(rows) - 1
    if s < 1 or is_independent(F, rows) or m_dependency_witness(F, rows, s) is not None:
        return False, None
    return True, s


def canonical_simplex(dim: int, s: int) -> linalg.Matrix:
    """The rows of the s-simplex on the first s basis points plus their
    sum, in every field."""
    if s > dim:
        raise ValidationError(f"no {s}-simplex fits in dimension {dim}")
    if s < 2:
        raise ValidationError("a simplex needs s >= 2")
    eye = linalg.identity(dim)
    return eye[:s] + (tuple(1 if j < s else 0 for j in range(dim)),)


@dataclass(frozen=True)
class SearchResult:
    status: str  # "found" | "infeasible" | "unknown"
    points: linalg.Matrix | None  # the lead-one rows of a found set
    nodes: int


def search_m_independent(F: GF, d: int, m: int, target_size: int,
                         budget: int = 1_000_000) -> SearchResult:
    """Backtracking search for an m-independent set of the target size in
    F^d.

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
    R' comes from whichever filter takes fewer line lookups, ties to the
    first: one lookup per point of R above c, keeping the points whose line
    to c misses X, or one per point of X, keeping the points of R above c
    off the join of c and X.  The pick compares point counts, so it is
    deterministic.  Both filters run inline in the loop, one block per
    child, and so do the joins of a pushed child's levels.

    Children are charged in the same loop.  A child with an empty R' is
    not pushed: it is charged at once the count - c - 1 points its scan
    would pass over.  A child with one free point is pushed without
    levels, as its one child has no free points to filter.  A node two
    levels above the target pushes no child: a child with a nonempty R'
    completes a found set with the lowest point of R'.  The tree, every
    node count, the found set and the budget cut-off are those of the
    plain scan.

    Lines are memoized per call: a point that looks a line up gets a dict
    from the points of the lines through it to those lines, and a computed
    line goes into the dicts of all its points that have one.  Filing it
    under every point on it would compute each line once, but it gives
    dicts to points that never look a line up: on budget-stopped searches
    in PG(7, 4) that cost more time and memory than the recomputed lines
    saved.  No other span is built by elimination.
    """
    if target_size < 1:
        raise ValidationError("target size must be positive")
    if m < 1:
        raise ValidationError("m must be positive")
    if budget < 0:
        raise ValidationError(f"need a budget of at least 0 nodes, got {budget}")
    # the table outlives the call, so the cap is checked on every call
    check_pg_cap(F, d)
    universe = lead_one_vectors(F, d)[0]
    count = len(universe)
    rows: list[dict[int, int] | None] = [None] * count

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

    def found(indices, nodes: int) -> SearchResult:
        return SearchResult("found", tuple(universe[i] for i in indices), nodes)

    if target_size == 1:  # the scan stops at the first point
        return found((0,), 1) if budget else SearchResult("unknown", None, 1)
    nodes = start = 0
    chosen: list[int] = []
    free = (1 << count) - 1  # the node's free points not tried yet
    levels: list[int] | None = [0] * max(1, m - 1)  # L_0, ..., L_(m-2)
    # each ancestor's untried free points and its levels
    r_stack: list[int] = []
    level_stack: list[list[int] | None] = []
    leaf_parent = target_size - 2
    while True:
        if not free:
            nodes += count - start
            if nodes > budget:
                return SearchResult("unknown", None, budget + 1)
            if not chosen:
                return SearchResult("infeasible", None, nodes)
            start = chosen.pop() + 1
            free = r_stack.pop()
            levels = level_stack.pop()
            continue
        low = free & -free
        cand = low.bit_length() - 1
        nodes += cand - start + 1
        if nodes > budget:
            return SearchResult("unknown", None, budget + 1)
        start = cand + 1
        # R', the child's free points, from R above cand
        free ^= low
        child = 0
        if free:
            row = rows[cand]
            if row is None:
                row = rows[cand] = {}
            x = levels[-1]
            if free.bit_count() <= x.bit_count():
                rest = free
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    point = bit.bit_length() - 1
                    try:
                        mask = row[point]
                    except KeyError:
                        mask = line(cand, point)
                    if not mask & x:
                        child |= bit
            else:
                joined = low
                rest = x
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    point = bit.bit_length() - 1
                    try:
                        joined |= row[point]
                    except KeyError:
                        joined |= line(cand, point)
                child = free & ~joined
        if not child:
            # the child's scan passes over every point above cand
            nodes += count - start
            if nodes > budget:
                return SearchResult("unknown", None, budget + 1)
            continue
        if len(chosen) == leaf_parent:
            # the child's scan stops at its lowest free point
            last = (child & -child).bit_length() - 1
            nodes += last - cand
            if nodes > budget:
                return SearchResult("unknown", None, budget + 1)
            return found((*chosen, cand, last), nodes)
        r_stack.append(free)
        level_stack.append(levels)
        chosen.append(cand)
        free = child
        if child & (child - 1):
            # L_i joins cand and the lines from cand to the points of L_(i-1)
            grown = [0]
            for lower, upper in zip(levels, levels[1:]):
                joined = low
                while lower:
                    bit = lower & -lower
                    lower ^= bit
                    point = bit.bit_length() - 1
                    try:
                        joined |= row[point]
                    except KeyError:
                        joined |= line(cand, point)
                grown.append(upper | joined)
            levels = grown
        else:
            # no child of a node with one free point has free points
            levels = None
