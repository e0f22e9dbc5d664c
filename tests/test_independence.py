import collections
import gc
import itertools
import random

import pytest

from grassmann_lab import independence, linalg
from grassmann_lab.config import caps, set_caps
from grassmann_lab.errors import CapExceededError, ValidationError
from grassmann_lab.fields import GF
from grassmann_lab.grassmannian import pg_points
from grassmann_lab.independence import (Ambient, PointSet, canonical_simplex,
                                        is_independent, m_dependency_witness,
                                        point_set, search_m_independent, simplex_rank)
from grassmann_lab.subspaces import Subspace, annihilator, intersect_many

from helpers import point_mask

F2 = GF.get(2)
F3 = GF.get(3)


def unit(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def basis_points(field, n):
    return point_set(field, [unit(i, n) for i in range(n)])


def test_is_m_independent_basic():
    assert m_dependency_witness(basis_points(F2, 4), 4) is None
    dependent = point_set(F2, [unit(0, 3), unit(1, 3), (1, 1, 0)])
    assert m_dependency_witness(dependent, 3) == (0, 1, 2)
    five = point_set(F2, [unit(i, 4) for i in range(4)] + [(1, 1, 1, 1)])
    assert m_dependency_witness(five, 4) is None
    with pytest.raises(ValidationError):
        m_dependency_witness(five, 6)


def test_pointset_equality_ignores_order():
    a = point_set(F2, [unit(0, 3), unit(1, 3), (1, 1, 1)])
    b = point_set(F2, [(1, 1, 1), unit(0, 3), unit(1, 3)])
    assert a == b and hash(a) == hash(b)
    assert a.points != b.points  # order is still observable
    c = point_set(F2, [unit(0, 3), unit(1, 3), unit(2, 3)])
    assert a != c


def test_points_must_be_distinct_lines():
    with pytest.raises(ValidationError):
        point_set(F2, [unit(0, 3), unit(0, 3)])
    with pytest.raises(ValidationError):
        point_set(F2, [(0, 0, 0)])
    # over GF(3), scalar multiples are the same projective point
    with pytest.raises(ValidationError):
        point_set(F3, [(1, 2, 0), (2, 1, 0)])


def test_simplex_rank():
    ps = point_set(F2, [unit(0, 4), unit(1, 4), unit(2, 4), (1, 1, 1, 0)])
    assert simplex_rank(ps) == (True, 3)
    assert simplex_rank(basis_points(F2, 4)) == (False, None)
    x6 = point_set(F2, [unit(i, 6) for i in range(4)]
                   + [(1, 1, 1, 1, 0, 0), unit(4, 6)])
    assert m_dependency_witness(x6, 4) is None
    assert m_dependency_witness(x6, 5) is not None
    assert m_dependency_witness(x6, 5) == (0, 1, 2, 3, 4)
    assert simplex_rank(x6) == (False, None)


def test_canonical_simplex():
    ps = canonical_simplex(F2, 4, 3)
    assert [p.rows[0] for p in ps.points] == [unit(0, 4), unit(1, 4), unit(2, 4),
                                              (1, 1, 1, 0)]
    tri = canonical_simplex(F3, 3, 2)
    assert len(tri) == 3
    for s in range(2, 5):
        ps = canonical_simplex(F2, 4, s) if s <= 4 else None
        if ps is None:
            continue
        assert simplex_rank(ps) == (True, s)
        assert m_dependency_witness(ps, s) is None
        assert not is_independent(ps)
    with pytest.raises(ValidationError):
        canonical_simplex(F2, 3, 4)


def test_search_finds_basis_plus_ones():
    result = search_m_independent(Ambient("primal", F2, 4), 4, 5)
    assert result.found
    assert m_dependency_witness(result.points, 4) is None
    assert len(result.points) == 5


def test_search_fano_arc():
    result = search_m_independent(Ambient("primal", F2, 3), 3, 4)
    assert result.found
    assert m_dependency_witness(result.points, 3) is None
    assert simplex_rank(result.points) == (True, 3)


def test_search_prefix_of_basis():
    result = search_m_independent(Ambient("primal", F3, 4), 4, 3)
    assert result.found
    assert is_independent(result.points)


def test_search_certifies_infeasible():
    # the Fano plane has no 5-point arc
    result = search_m_independent(Ambient("primal", F2, 3), 3, 5)
    assert result.status == "infeasible"
    assert result.points is None
    # 7 points of PG(3,2) in general position do not exist
    result2 = search_m_independent(Ambient("primal", F2, 4), 4, 7)
    assert result2.status == "infeasible"


def test_search_budget_exhaustion_is_unknown():
    result = search_m_independent(Ambient("primal", F2, 4), 4, 5, budget=3)
    assert result.status == "unknown"
    assert result.nodes > 3


def test_search_refuses_a_negative_budget():
    with pytest.raises(ValidationError, match="budget of at least 0 nodes, got -1"):
        search_m_independent(Ambient("primal", F2, 4), 4, 5, budget=-1)


def test_search_keeps_the_point_cap_once_the_point_table_is_cached():
    # the search reads the point vectors from a table cached across calls,
    # so the cap on PG(3, 2), with [4]_2 = 15 points, must not rest on
    # building that table
    ambient = Ambient("primal", F2, 4)
    assert search_m_independent(ambient, 4, 5).status == "found"
    saved = caps()
    try:
        set_caps(graph_vertex_max=14)
        with pytest.raises(CapExceededError, match="PG\\(3, 2\\) with 15 points"):
            search_m_independent(ambient, 4, 5)
    finally:
        set_caps(q_max=saved.q_max, n_max=saved.n_max,
                 graph_vertex_max=saved.graph_vertex_max)
    assert search_m_independent(ambient, 4, 5).status == "found"


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
        ps = point_set(field, vectors)
        assert m_dependency_witness(ps, d) is None
        canonical = canonical_simplex(field, d, d)
        pairs = list(zip(ps.points, canonical.points))
        mapping, _, resolved = solve_semilinear_mapping(field, d, pairs)
        assert resolved and mapping is not None and mapping.sigma == 0
        for src, dst in pairs:
            assert mapping.apply(src) == dst


def test_pointset_from_subspaces_in_dual_kind():
    points = [annihilator(Subspace.from_rows(
        F2, 3, (unit(0, 3), unit(1, 3)))).rows[0]]
    ps = PointSet(Ambient("dual", F2, 3),
                  (Subspace.line(F2, points[0]),))
    assert ps.ambient.kind == "dual"
    with pytest.raises(ValidationError):
        Ambient("sideways", F2, 3)


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
    result = search_m_independent(Ambient("primal", GF.get(p, e), d), m, size, budget)
    reps = None if result.points is None else list(result.points.representatives())
    assert (result.status, result.nodes, reps) == expected
    if result.points is not None:
        # each found point is the canonical subspace of its table vector
        assert set(result.points) <= set(pg_points(GF.get(p, e), d))


def _reference_search(ambient, m, target_size, budget):
    """The per-candidate search the bitset scan replaced: one node and one
    bit test per candidate, each span by elimination.  Returns (status,
    nodes, representatives of the found points or None)."""
    F, d = ambient.field, ambient.dim
    universe = pg_points(F, d)
    spans = {}

    def span(indices):
        if indices not in spans:
            rows = tuple(universe[i].rows[0] for i in indices)
            spans[indices] = point_mask(Subspace.from_rows(F, d, rows))
        return spans[indices]

    def forbidden_after(chosen, forbidden, cand):
        if m == 1:
            return forbidden | 1 << cand
        if len(chosen) + 1 <= m - 2:
            return span(tuple(chosen) + (cand,))
        for subset in itertools.combinations(chosen, m - 2):
            forbidden |= span(subset + (cand,))
        return forbidden

    nodes = 0
    chosen, forbidden_stack, frontier = [], [0], [0]
    while True:
        if len(chosen) == target_size:
            return "found", nodes, [universe[i].rows[0] for i in chosen]
        forbidden = forbidden_stack[-1]
        for cand in range(frontier[-1], len(universe)):
            nodes += 1
            if nodes > budget:
                return "unknown", nodes, None
            if not (forbidden >> cand) & 1:
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


def _search(ambient, m, size, budget):
    result = search_m_independent(ambient, m, size, budget)
    reps = None if result.points is None else list(result.points.representatives())
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


@pytest.fixture
def filter_calls(monkeypatch):
    """Counts the calls of each filter of the forward check that test
    against a nonempty X."""
    calls = collections.Counter()
    for name in ("_free_by_lines", "_free_by_join"):
        def counted(row, line, cand, above, avoid, _name=name,
                    _filter=getattr(independence, name)):
            calls[_name] += avoid != 0
            return _filter(row, line, cand, above, avoid)
        monkeypatch.setattr(independence, name, counted)
    return calls


@pytest.mark.parametrize("p,e,m_ranges,top_budget", REFERENCE_CASES, ids=REFERENCE_IDS)
def test_search_matches_the_per_candidate_reference(p, e, m_ranges, top_budget, filter_calls):
    rng = random.Random(p * 100 + e)
    F = GF.get(p, e)
    statuses = set()
    for d, ms in m_ranges.items():
        ambient = Ambient("primal", F, d)
        for m in ms:
            # a size that usually fits, and one that often does not
            for size in (m + rng.randint(0, 2), m + rng.randint(2, F.q + 2)):
                budget = rng.choice([rng.randint(0, 40), rng.randint(100, 3000), top_budget])
                expected = _reference_search(ambient, m, size, budget)
                assert _search(ambient, m, size, budget) == expected, (d, m, size, budget)
                statuses.add(expected[0])
                if expected[0] == "unknown":
                    continue
                # a budget of exactly the nodes used still finishes; one less does not
                for tight in (expected[1], expected[1] - 1):
                    assert (_search(ambient, m, size, tight)
                            == _reference_search(ambient, m, size, tight)), (d, m, size, tight)
    assert {"found", "unknown"} <= statuses
    if any((p, e, d) in BIGGER_SPACES for d in m_ranges):
        # both filters run in these searches
        assert filter_calls["_free_by_lines"] and filter_calls["_free_by_join"], filter_calls


def test_search_leaves_no_reference_cycle():
    # the line memo must be freed when the search returns, not at the next
    # cyclic collection, for m = 4 and m = 6
    for p, e, d, m, size, budget in [(2, 2, 4, 4, 6, 100_000), (2, 2, 5, 6, 9, 20_000)]:
        ambient = Ambient("primal", GF.get(p, e), d)
        search_m_independent(ambient, m, size, budget=0)  # builds the point table
        gc.collect()
        gc.disable()
        try:
            search_m_independent(ambient, m, size, budget=budget)
            assert gc.collect() == 0, (p, e, d, m)
        finally:
            gc.enable()
