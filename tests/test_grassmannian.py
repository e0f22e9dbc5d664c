import itertools
import random

import networkx as nx
import pytest

from grassmann_lab.errors import CapExceededError, ValidationError
from grassmann_lab.fields import GF
from grassmann_lab.grassmannian import (GrassmannianSpec, distance, distance_rows,
                                        iter_rref_bases, pg_points)
from grassmann_lab.johnson import johnson_distance, johnson_vertices
from grassmann_lab.subspaces import Subspace, annihilator

from helpers import adjacent, apartment_from_frame, star, top

F2 = GF.get(2)
F3 = GF.get(3)


def unit(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def q_binomial(n, k, q):
    """Independent closed-form oracle for the subspace count."""
    if not 0 <= k <= n:
        return 0
    value = 1
    for i in range(k):
        value = value * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return value


def to_graph(spec):
    g = nx.Graph()
    g.add_nodes_from(range(len(spec)))
    dmat = spec.distance_matrix()
    for i in range(len(spec)):
        for j in range(i + 1, len(spec)):
            if dmat[i][j] == 1:
                g.add_edge(i, j)
    return g


def test_enumeration_counts():
    assert len(GrassmannianSpec(F2, 4, 2)) == 35
    assert len(GrassmannianSpec(F3, 3, 1)) == 13
    assert len(GrassmannianSpec(F2, 4, 4)) == 1
    assert len(GrassmannianSpec(F2, 4, 0)) == 1
    # one-liner oracle: (2^4-1)(2^4-2)/((2^2-1)(2^2-2))
    assert (2 ** 4 - 1) * (2 ** 4 - 2) // ((2 ** 2 - 1) * (2 ** 2 - 2)) == 35
    assert (3 ** 3 - 1) // (3 - 1) == 13


@pytest.mark.parametrize("n,k,q", [(4, 2, 2), (5, 2, 2), (4, 2, 3), (5, 3, 2), (4, 1, 4)])
def test_enumeration_matches_oracle_and_is_duplicate_free(n, k, q):
    p, e = (2, 2) if q == 4 else (q, 1)
    field = GF.get(p, e)
    bases = list(iter_rref_bases(field, n, k))
    assert len(bases) == len(set(bases)) == q_binomial(n, k, q)
    spec = GrassmannianSpec(field, n, k)
    assert len(spec) == q_binomial(n, k, q)
    # deterministic order: sorted by canonical rows
    assert list(spec.subspaces) == sorted(spec.subspaces, key=lambda s: s.rows)


def test_distance_and_adjacency_basic():
    s = Subspace.from_rows(F2, 4, (unit(0, 4), unit(1, 4)))
    u = Subspace.from_rows(F2, 4, (unit(2, 4), unit(3, 4)))
    w = Subspace.from_rows(F2, 4, (unit(1, 4), unit(2, 4)))
    assert distance(s, s) == 0 and not adjacent(s, s)
    assert distance(s, u) == 2 and not adjacent(s, u)
    assert distance(s, w) == 1 and adjacent(s, w)
    with pytest.raises(ValidationError):
        distance(s, Subspace.line(F2, unit(0, 4)))


def test_distance_rows_are_the_pairwise_distances():
    spaces = GrassmannianSpec(F3, 4, 2).subspaces[::7]
    rows = distance_rows(spaces)
    assert [list(row) for row in rows] == [[distance(a, b) for b in spaces] for a in spaces]


@pytest.mark.parametrize("n,k,q", [(4, 2, 2), (5, 2, 2), (4, 2, 3)])
def test_distance_formula_equals_bfs(n, k, q):
    spec = GrassmannianSpec(GF.get(q), n, k)
    g = to_graph(spec)
    dmat = spec.distance_matrix()
    for src, lengths in nx.all_pairs_shortest_path_length(g):
        for dst in range(len(spec)):
            assert lengths[dst] == dmat[src][dst]


@pytest.mark.parametrize("n,k,p,e", [(4, 2, 2, 1), (5, 2, 2, 1), (4, 2, 3, 1), (4, 2, 2, 2),
                                     (5, 3, 2, 1)])
def test_point_incidence_table_equals_rank_distance(n, k, p, e):
    spec = GrassmannianSpec(GF.get(p, e), n, k)
    dmat = spec.distance_matrix()
    assert all(isinstance(row, bytes) for row in dmat)
    for i, a in enumerate(spec.subspaces):
        assert list(dmat[i]) == [distance(a, b) for b in spec.subspaces]


@pytest.mark.parametrize("n,k,p,e", [(6, 3, 2, 1), (4, 2, 2, 3), (4, 2, 3, 2)])
def test_point_incidence_classes_agree_with_rank_distance_on_sampled_pairs(n, k, p, e):
    # 1,395, 4,745 and 7,462 vertices: too many for a full pairwise check,
    # so 2,000 seeded pairs, over GF(8) and GF(9) where Frobenius twists act.
    # Uniform pairs are nearly all at the diameter, so half the pairs take j
    # from a random class of i, at or after a random vertex
    spec = GrassmannianSpec(GF.get(p, e), n, k)
    sets = spec.distance_sets()
    rng = random.Random(f"{n},{k},{p},{e}")
    for _ in range(1000):
        i, uniform = rng.randrange(len(spec)), rng.randrange(len(spec))
        bits = sets[i][rng.randrange(len(sets[i]))]
        start = rng.randrange(len(spec))
        after = bits >> start << start or bits
        for j in (uniform, (after & -after).bit_length() - 1):
            d = distance(spec.by_id(i), spec.by_id(j))
            assert [c >> j & 1 for c in sets[i]] == [int(x == d) for x in range(len(sets[i]))]


@pytest.mark.parametrize("n,k,p,e", [(4, 2, 2, 1), (5, 2, 2, 1), (4, 2, 3, 1), (4, 2, 2, 2),
                                     (5, 1, 2, 1), (5, 4, 3, 1)])
def test_distance_sets_are_the_matrix_buckets(n, k, p, e):
    spec = GrassmannianSpec(GF.get(p, e), n, k)
    dmat = spec.distance_matrix()
    diam = min(k, n - k)
    for i, classes in enumerate(spec.distance_sets()):
        assert len(classes) == diam + 1
        for d, bits in enumerate(classes):
            assert isinstance(bits, int)
            assert bits == sum(1 << j for j, x in enumerate(dmat[i]) if x == d)


@pytest.mark.parametrize("n,k", [(4, 0), (4, 4)])
def test_one_vertex_grassmannians(n, k):
    spec = GrassmannianSpec(F3, n, k)
    assert spec.distance_matrix() == [b"\0"]
    assert spec.distance_sets() == [(1,)]


def test_star_and_top_sizes():
    m = Subspace.line(F2, unit(0, 4))
    st = star(m)
    assert len(st) == (2 ** 3 - 1) // (2 - 1) == 7
    assert all(s.dim == 2 and s.contains(m) for s in st)
    n_space = Subspace.from_rows(F2, 4, (unit(0, 4), unit(1, 4), unit(2, 4)))
    tp = top(n_space)
    assert len(tp) == (2 ** 3 - 1) // (2 - 1) == 7
    assert all(s.dim == 2 and n_space.contains(s) for s in tp)
    # a star and a top through m < n_space meet in a line of q+1 elements
    line = st & tp
    assert len(line) == 3


def test_apartment_from_frame():
    frame = [Subspace.line(F2, unit(i, 4)) for i in range(4)]
    apt = apartment_from_frame(frame, 2)
    assert len(apt) == 6
    points = apartment_from_frame(frame, 1)
    assert points == frozenset(frame)
    with pytest.raises(ValidationError):
        apartment_from_frame(frame[:3] + [Subspace.line(F2, (1, 1, 0, 0))], 2)


def test_apartment_distances_match_johnson():
    frame = [Subspace.line(F2, unit(i, 4)) for i in range(4)]
    by_mask = {}
    for combo in itertools.combinations(range(4), 2):
        rows = tuple(unit(i, 4) for i in combo)
        mask = sum(1 << i for i in combo)
        by_mask[mask] = Subspace.from_rows(F2, 4, rows)
    masks = list(by_mask)
    assert len(masks) == 6
    for a, b in itertools.combinations(masks, 2):
        assert distance(by_mask[a], by_mask[b]) == johnson_distance(a, b, 2)


def test_maximal_cliques_are_exactly_stars_and_tops():
    spec = GrassmannianSpec(F2, 4, 2)
    g = to_graph(spec)
    found = {frozenset(c) for c in nx.find_cliques(g)}
    index = {s: i for i, s in enumerate(spec.subspaces)}
    named = set()
    for m_rows in iter_rref_bases(F2, 4, 1):
        members = star(Subspace(F2, 4, m_rows))
        named.add(frozenset(index[s] for s in members))
    for n_rows in iter_rref_bases(F2, 4, 3):
        members = top(Subspace(F2, 4, n_rows))
        named.add(frozenset(index[s] for s in members))
    assert found == named
    assert len(named) == 15 + 15


def test_annihilator_is_graph_isomorphism_swapping_clique_kinds():
    spec = GrassmannianSpec(F2, 4, 2)
    subs = spec.subspaces
    # bijective on the 35 vertices, adjacency preserved on all 595 pairs
    images = {annihilator(s) for s in subs}
    assert len(images) == 35 and all(s.dim == 2 for s in images)
    for s, u in itertools.combinations(subs, 2):
        assert adjacent(s, u) == adjacent(annihilator(s), annihilator(u))
    for m_rows in iter_rref_bases(F2, 4, 1):
        m = Subspace(F2, 4, m_rows)
        assert {annihilator(s) for s in star(m)} == top(annihilator(m))
    for n_rows in iter_rref_bases(F2, 4, 3):
        n_space = Subspace(F2, 4, n_rows)
        assert {annihilator(s) for s in top(n_space)} == star(annihilator(n_space))


def test_apartment_graph_is_johnson():
    frame = [Subspace.line(F2, unit(i, 5)) for i in range(5)]
    apt = sorted(apartment_from_frame(frame, 2), key=lambda s: s.rows)
    g = nx.Graph()
    g.add_nodes_from(range(len(apt)))
    for i, j in itertools.combinations(range(len(apt)), 2):
        if adjacent(apt[i], apt[j]):
            g.add_edge(i, j)
    vertices = johnson_vertices(5, 2)
    jg = nx.Graph()
    jg.add_nodes_from(vertices)
    for a, b in itertools.combinations(vertices, 2):
        if johnson_distance(a, b, 2) == 1:
            jg.add_edge(a, b)
    assert nx.is_isomorphic(g, jg)


def test_vertex_cap_enforced():
    with pytest.raises(CapExceededError):
        GrassmannianSpec(GF.get(2, 2), 8, 4)


def test_pg_points_count():
    assert len(pg_points(F2, 4)) == 15
    assert len(pg_points(F3, 3)) == 13
    assert len({p for p in pg_points(GF.get(2, 2), 2)}) == 5
    # PG(5, 16) has 1,118,481 points, past the default vertex cap
    with pytest.raises(CapExceededError, match="PG\\(5, 16\\) with 1118481 points"):
        pg_points(GF.get(2, 4), 6)
