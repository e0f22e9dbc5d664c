import gc
import itertools
import random

import pytest

from grassmann_lab import jsonio, linalg
from grassmann_lab.config import caps, set_caps
from grassmann_lab.errors import CapExceededError, SchemaError, ValidationError
from grassmann_lab.fields import GF
from grassmann_lab.grassmannian import pg_points
from grassmann_lab.independence import (canonical_simplex, is_independent,
                                        m_dependency_witness, search_m_independent,
                                        simplex_rank)
from grassmann_lab.subspaces import Subspace, annihilator, intersect_many

from helpers import point_mask, pointset_to_json

F2 = GF.get(2)
F3 = GF.get(3)


def unit(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def basis_points(n):
    return [unit(i, n) for i in range(n)]


def test_is_m_independent_basic():
    assert m_dependency_witness(F2, basis_points(4), 4) is None
    dependent = [unit(0, 3), unit(1, 3), (1, 1, 0)]
    assert m_dependency_witness(F2, dependent, 3) == (0, 1, 2)
    five = basis_points(4) + [(1, 1, 1, 1)]
    assert m_dependency_witness(F2, five, 4) is None
    with pytest.raises(ValidationError):
        m_dependency_witness(F2, five, 6)


def test_points_must_be_distinct_lines():
    # the point-set loader refuses rows that are no set of points
    def load(field, rows):
        return jsonio.pointset_from_json(pointset_to_json(field, rows))

    with pytest.raises(SchemaError, match="points must be pairwise distinct"):
        load(F2, [unit(0, 3), unit(0, 3)])
    with pytest.raises(SchemaError, match="zero vector is not a point"):
        load(F2, [(0, 0, 0)])
    # over GF(3), scalar multiples are the same projective point
    with pytest.raises(SchemaError, match="points\\[1\\]: repeats points\\[0\\]"):
        load(F3, [(1, 2, 0), (2, 1, 0)])


def test_simplex_rank():
    rows = [unit(0, 4), unit(1, 4), unit(2, 4), (1, 1, 1, 0)]
    assert simplex_rank(F2, rows) == (True, 3)
    assert simplex_rank(F2, basis_points(4)) == (False, None)
    x6 = [unit(i, 6) for i in range(4)] + [(1, 1, 1, 1, 0, 0), unit(4, 6)]
    assert m_dependency_witness(F2, x6, 4) is None
    assert m_dependency_witness(F2, x6, 5) == (0, 1, 2, 3, 4)
    assert simplex_rank(F2, x6) == (False, None)


def test_canonical_simplex():
    assert canonical_simplex(4, 3) == (unit(0, 4), unit(1, 4), unit(2, 4), (1, 1, 1, 0))
    # the rows are a simplex over every field
    tri = canonical_simplex(3, 2)
    assert len(tri) == 3 and simplex_rank(F3, tri) == (True, 2)
    for s in range(2, 5):
        rows = canonical_simplex(4, s)
        assert simplex_rank(F2, rows) == (True, s)
        assert m_dependency_witness(F2, rows, s) is None
        assert not is_independent(F2, rows)
    with pytest.raises(ValidationError):
        canonical_simplex(3, 4)


def test_search_finds_basis_plus_ones():
    result = search_m_independent(F2, 4, 4, 5)
    assert result.status == "found"
    assert m_dependency_witness(F2, result.points, 4) is None
    assert len(result.points) == 5


def test_search_fano_arc():
    result = search_m_independent(F2, 3, 3, 4)
    assert result.status == "found"
    assert m_dependency_witness(F2, result.points, 3) is None
    assert simplex_rank(F2, result.points) == (True, 3)


def test_search_prefix_of_basis():
    result = search_m_independent(F3, 4, 4, 3)
    assert result.status == "found"
    assert is_independent(F3, result.points)


def test_search_certifies_infeasible():
    # the Fano plane has no 5-point arc
    result = search_m_independent(F2, 3, 3, 5)
    assert result.status == "infeasible"
    assert result.points is None
    # 7 points of PG(3,2) in general position do not exist
    result2 = search_m_independent(F2, 4, 4, 7)
    assert result2.status == "infeasible"


def test_search_budget_exhaustion_is_unknown():
    result = search_m_independent(F2, 4, 4, 5, budget=3)
    assert result.status == "unknown"
    assert result.nodes > 3


def test_search_refuses_a_negative_budget():
    with pytest.raises(ValidationError, match="budget of at least 0 nodes, got -1"):
        search_m_independent(F2, 4, 4, 5, budget=-1)


def test_search_keeps_the_point_cap_once_the_point_table_is_cached():
    # the search reads the point vectors from a table cached across calls,
    # so the cap on PG(3, 2), with [4]_2 = 15 points, must not rest on
    # building that table
    assert search_m_independent(F2, 4, 4, 5).status == "found"
    saved = caps()
    try:
        set_caps(graph_vertex_max=14)
        with pytest.raises(CapExceededError, match="PG\\(3, 2\\) with 15 points"):
            search_m_independent(F2, 4, 4, 5)
    finally:
        set_caps(q_max=saved.q_max, n_max=saved.n_max,
                 graph_vertex_max=saved.graph_vertex_max)
    assert search_m_independent(F2, 4, 4, 5).status == "found"


def test_annihilator_transfers_m_independence():
    # points against their annihilator hyperplanes, exhaustively in F_2^4:
    # spans of j points have dimension j exactly when the corresponding
    # hyperplane intersections have codimension j
    families = [
        [unit(i, 4) for i in range(4)],
        [unit(0, 4), unit(1, 4), (1, 1, 0, 0), (0, 0, 1, 1)],
        [unit(i, 4) for i in range(4)] + [(1, 1, 1, 1)],
    ]
    for vectors in families:
        points = [Subspace.line(F2, v) for v in vectors]
        hyperplanes = [annihilator(p) for p in points]
        for m in range(1, len(points) + 1):
            for combo in itertools.combinations(range(len(points)), m):
                span_dim = linalg.rank(F2, tuple(vectors[i] for i in combo))
                meet = intersect_many(F2, 4, [hyperplanes[i] for i in combo])
                assert (span_dim == m) == (meet.dim == 4 - m)


def test_general_position_frames_are_projectively_equivalent():
    # any s+2 points in general position in a rank-(s+1) space can be
    # carried onto the canonical frame by an explicit projectivity
    from grassmann_lab.rigidity import solve_semilinear_mapping
    frames = {
        (F2, 3): [(1, 1, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)],
        (F3, 3): [(1, 0, 1), (0, 1, 1), (0, 0, 1), (1, 1, 0)],
    }
    for (field, d), vectors in frames.items():
        assert m_dependency_witness(field, vectors, d) is None
        pairs = [(Subspace.line(field, src), Subspace.line(field, dst))
                 for src, dst in zip(vectors, canonical_simplex(d, d))]
        mapping, _, resolved = solve_semilinear_mapping(field, d, pairs)
        assert resolved and mapping is not None and mapping.sigma == 0
        for src, dst in pairs:
            assert mapping.apply(src) == dst


# (p, e, dim, m, size, budget) -> (status, nodes, found point reps); the
# node count is part of the search's behaviour, so it is pinned exactly
SEARCH_PINS = [
    ((2, 1, 3, 3, 5, 10**6), ("infeasible", 97, None)),
    ((2, 1, 4, 4, 7, 10**6), ("infeasible", 4034, None)),
    ((3, 1, 3, 3, 5, 10**6), ("infeasible", 1424, None)),
    ((2, 2, 3, 3, 7, 10**6), ("infeasible", 18953, None)),
    ((2, 2, 3, 3, 6, 10**6),
     ("found", 20, [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 2), (0, 1, 3)])),
    ((3, 1, 4, 4, 6, 1000), ("unknown", 1001, None)),
    ((2, 1, 4, 4, 5, 3), ("unknown", 4, None)),
    # the searches of perfbench's `points` requests, at the CLI's build budget
    ((3, 1, 4, 4, 6, 2 * 10**6), ("infeasible", 1151612, None)),
    ((2, 1, 5, 4, 7, 2 * 10**6), ("infeasible", 918638, None)),
    ((2, 2, 4, 4, 6, 100_000), ("unknown", 100001, None)),
    # found sets in PG(4, 4) and PG(3, 9) past leaves charged for whole scans
    ((2, 2, 5, 4, 11, 10**6),
     ("found", 635, [(1, 0, 0, 0, 0), (1, 0, 0, 0, 1), (1, 0, 0, 1, 0), (1, 0, 1, 0, 0),
                     (1, 0, 1, 1, 2), (1, 1, 0, 0, 0), (1, 1, 0, 1, 3), (1, 1, 1, 2, 0),
                     (1, 1, 2, 0, 1), (1, 3, 3, 2, 3), (0, 1, 2, 3, 2)])),
    ((3, 2, 4, 4, 10, 10**6),
     ("found", 5838, [(1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0), (1, 1, 1, 1),
                      (1, 1, 2, 3), (1, 2, 6, 4), (1, 3, 7, 1), (1, 4, 1, 2), (0, 1, 7, 2)])),
]


@pytest.mark.parametrize("case,expected", SEARCH_PINS, ids=[str(c) for c, _ in SEARCH_PINS])
def test_search_status_nodes_and_points_are_pinned(case, expected):
    p, e, d, m, size, budget = case
    F = GF.get(p, e)
    result = search_m_independent(F, d, m, size, budget)
    reps = None if result.points is None else list(result.points)
    assert (result.status, result.nodes, reps) == expected
    if result.points is not None:
        # each found row is the RREF basis of its point
        assert {Subspace(F, d, (row,)) for row in result.points} <= set(pg_points(F, d))


def _reference_search(F, d, m, target_size, budget, pushes=None):
    """The per-candidate search the bitset scan replaced: one node and one
    bit test per candidate, each span by elimination.  Returns (status,
    nodes, representatives of the found points or None).

    A list given as pushes gets, at each push of a candidate c, the sizes
    of the two sets the forward check may filter by: the free points above
    c, and X, the union of the spans of the (m - 2)-subsets of the chosen
    points (their span while there are fewer; empty for m <= 2)."""
    universe = pg_points(F, d)
    spans = {}

    def span(indices):
        if indices not in spans:
            rows = tuple(universe[i].rows[0] for i in indices)
            spans[indices] = point_mask(Subspace.from_rows(F, d, rows))
        return spans[indices]

    def grown(level, i, chosen, cand):
        """The union of the spans of the i-subsets of chosen + cand (their
        span while fewer), from level, that union for chosen."""
        if len(chosen) + 1 <= i - 1:
            return span(tuple(chosen) + (cand,))
        for subset in itertools.combinations(chosen, i - 1):
            level |= span(subset + (cand,))
        return level

    def forbidden_after(chosen, forbidden, cand):
        if m == 1:
            return forbidden | 1 << cand
        return grown(forbidden, m - 1, chosen, cand)

    everything = (1 << len(universe)) - 1
    nodes = 0
    chosen, forbidden_stack, frontier, x_stack = [], [0], [0], [0]
    while True:
        if len(chosen) == target_size:
            return "found", nodes, [universe[i].rows[0] for i in chosen]
        forbidden = forbidden_stack[-1]
        for cand in range(frontier[-1], len(universe)):
            nodes += 1
            if nodes > budget:
                return "unknown", nodes, None
            if not (forbidden >> cand) & 1:
                if pushes is not None:
                    above = (everything & ~forbidden) >> (cand + 1)
                    pushes.append((above.bit_count(), x_stack[-1].bit_count()))
                    x_stack.append(grown(x_stack[-1], m - 2, chosen, cand) if m > 2 else 0)
                frontier[-1] = cand + 1
                forbidden_stack.append(forbidden_after(chosen, forbidden, cand))
                chosen.append(cand)
                frontier.append(cand + 1)
                break
        else:
            if not chosen:
                return "infeasible", nodes, None
            chosen.pop()
            frontier.pop()
            forbidden_stack.pop()
            if pushes is not None:
                x_stack.pop()


def _search(F, d, m, size, budget):
    result = search_m_independent(F, d, m, size, budget)
    reps = None if result.points is None else list(result.points)
    return result.status, result.nodes, reps


# (p, e) -> ambient dimensions; PG(d-1, q) stays under a few hundred points
REFERENCE_FIELDS = {(2, 1): (3, 4, 5), (3, 1): (3, 4), (2, 2): (3, 4), (5, 1): (3, 4),
                    (2, 3): (2, 3), (3, 2): (2, 3)}
# (p, e, d) -> the m tried in the bigger spaces PG(4, 3) and PG(4, 4), up
# to m = 6 > d, with budgets up to 20,000 nodes
BIGGER_SPACES = {(3, 1, 5): (3, 4, 5, 6), (2, 2, 5): (3, 4, 5, 6)}
# (p, e, {d: m range}, the largest budget tried)
REFERENCE_CASES = (
    [(p, e, {d: range(1, d + 1) for d in dims}, 100_000)
     for (p, e), dims in REFERENCE_FIELDS.items()]
    + [(p, e, {d: ms}, 20_000) for (p, e, d), ms in BIGGER_SPACES.items()])
REFERENCE_IDS = ([f"GF({p ** e})" for p, e in REFERENCE_FIELDS]
                 + [f"GF({p ** e})-d{d}" for p, e, d in BIGGER_SPACES])


@pytest.mark.parametrize("p,e,m_ranges,top_budget", REFERENCE_CASES, ids=REFERENCE_IDS)
def test_search_matches_the_per_candidate_reference(p, e, m_ranges, top_budget):
    rng = random.Random(p * 100 + e)
    F = GF.get(p, e)
    statuses = set()
    pushes = []
    for d, ms in m_ranges.items():
        for m in ms:
            # a size that usually fits, and one that often does not
            for size in (m + rng.randint(0, 2), m + rng.randint(2, F.q + 2)):
                budget = rng.choice([rng.randint(0, 40), rng.randint(100, 3000), top_budget])
                expected = _reference_search(F, d, m, size, budget, pushes)
                assert _search(F, d, m, size, budget) == expected, (d, m, size, budget)
                statuses.add(expected[0])
                if expected[0] == "unknown":
                    continue
                # a budget of exactly the nodes used still finishes; one less does not
                for tight in (expected[1], expected[1] - 1):
                    assert (_search(F, d, m, size, tight)
                            == _reference_search(F, d, m, size, tight)), (d, m, size, tight)
    assert {"found", "unknown"} <= statuses
    if any((p, e, d) in BIGGER_SPACES for d in m_ranges):
        # both filters of the forward check run against a nonempty X here:
        # it filters by the free points above c when they are at most |X|
        by_free = sum(1 for above, x in pushes if x and 0 < above <= x)
        by_x = sum(1 for above, x in pushes if x and above > x)
        assert by_free and by_x, (by_free, by_x)


# (p, e, dim, m, size) of small searches whose leaf-parents both find a set
# and charge empty children, with m above the size and m = 2 (X empty)
EVERY_BUDGET = [(2, 1, 3, 3, 5), (2, 2, 3, 3, 6), (2, 1, 3, 5, 3), (2, 1, 3, 2, 8)]


@pytest.mark.parametrize("case", EVERY_BUDGET, ids=[str(c) for c in EVERY_BUDGET])
def test_every_budget_of_a_small_search_matches_the_reference(case):
    # a budget can run out at any node, inside the leaf-parent walk too
    p, e, d, m, size = case
    F = GF.get(p, e)
    status, nodes, _ = _reference_search(F, d, m, size, 10**6)
    assert status != "unknown"
    for budget in range(nodes + 2):
        assert (_search(F, d, m, size, budget)
                == _reference_search(F, d, m, size, budget)), budget


def test_search_leaves_no_reference_cycle():
    # the line memo must be freed when the search returns, not at the next
    # cyclic collection, for m = 4 and m = 6
    for p, e, d, m, size, budget in [(2, 2, 4, 4, 6, 100_000), (2, 2, 5, 6, 9, 20_000)]:
        F = GF.get(p, e)
        search_m_independent(F, d, m, size, budget=0)  # builds the point table
        gc.collect()
        gc.disable()
        try:
            search_m_independent(F, d, m, size, budget=budget)
            assert gc.collect() == 0, (p, e, d, m)
        finally:
            gc.enable()
