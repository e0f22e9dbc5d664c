import itertools
import math

import networkx as nx
import pytest

from grassmann_lab.errors import ValidationError
from grassmann_lab.johnson import (JohnsonAut, johnson_aut_group, johnson_diameter,
                                   johnson_distance, johnson_vertices, transposition_aut,
                                   vertex_from_indices, vertex_indices)

from helpers import johnson_adjacent, johnson_aut_group_order


def johnson_graph(l, m):
    g = nx.Graph()
    vertices = johnson_vertices(l, m)
    g.add_nodes_from(vertices)
    for a, b in itertools.combinations(vertices, 2):
        if johnson_adjacent(a, b, m):
            g.add_edge(a, b)
    return g


def test_vertex_counts_and_order():
    assert len(johnson_vertices(4, 2)) == 6
    assert len(johnson_vertices(5, 2)) == 10
    for l in (4, 5, 6):
        assert len(johnson_vertices(l, l - 1)) == l
    vs = johnson_vertices(4, 2)
    assert [vertex_indices(v) for v in vs[:3]] == [(0, 1), (0, 2), (0, 3)]
    with pytest.raises(ValidationError):
        johnson_vertices(4, 0)
    with pytest.raises(ValidationError):
        johnson_vertices(4, 4)


def test_vertex_mask_round_trip():
    v = vertex_from_indices((0, 2, 5))
    assert v == 0b100101
    assert vertex_indices(v) == (0, 2, 5)


def test_distance_examples():
    a = vertex_from_indices((0, 1))
    b = vertex_from_indices((2, 3))
    c = vertex_from_indices((1, 2))
    assert johnson_distance(a, a, 2) == 0
    assert johnson_distance(a, b, 2) == 2
    assert johnson_distance(a, c, 2) == 1


@pytest.mark.parametrize("l", range(2, 9))
def test_distance_is_geodesic_and_diameter_formula(l):
    for m in range(1, l):
        g = johnson_graph(l, m)
        lengths = dict(nx.all_pairs_shortest_path_length(g))
        worst = 0
        for a, b in itertools.combinations(g.nodes, 2):
            d = johnson_distance(a, b, m)
            assert lengths[a][b] == d
            worst = max(worst, d)
        assert worst == johnson_diameter(l, m) == min(m, l - m)


@pytest.mark.parametrize("l", range(3, 9))
def test_complementation_is_isomorphism(l):
    for m in range(1, l):
        full = (1 << l) - 1
        vs = johnson_vertices(l, m)
        images = [full ^ v for v in vs]
        assert sorted(images) == sorted(johnson_vertices(l, l - m))
        for a, b in itertools.combinations(vs, 2):
            assert johnson_distance(a, b, m) == johnson_distance(full ^ a, full ^ b, l - m)


def test_aut_application_and_composition():
    aut = transposition_aut(5, 0, 3)
    v = vertex_from_indices((0, 1))
    assert vertex_indices(aut.apply(v)) == (1, 3)
    comp = JohnsonAut(tuple(range(4)), complement=True)
    assert vertex_indices(comp.apply(vertex_from_indices((0, 1)))) == (2, 3)
    swap = transposition_aut(4, 0, 1)
    assert vertex_indices(comp.apply(swap.apply(vertex_from_indices((0, 2))))) == (0, 3)
    ident = JohnsonAut(tuple(range(6)))
    assert all(ident.apply(v) == v for v in johnson_vertices(6, 3))


def test_generators_preserve_adjacency():
    for l, m in [(5, 2), (6, 2), (6, 3)]:
        vs = johnson_vertices(l, m)
        for aut in johnson_aut_group(l, m):
            mapped = [aut.apply(v) for v in vs]
            assert sorted(mapped) == sorted(vs)
            for a, b in itertools.combinations(vs, 2):
                assert (johnson_adjacent(a, b, m)
                        == johnson_adjacent(aut.apply(a), aut.apply(b), m))


def test_complement_generator_only_when_l_is_2m():
    gens = johnson_aut_group(6, 3)
    assert sum(1 for g in gens if g.complement) == 1
    gens52 = johnson_aut_group(5, 2)
    assert all(not g.complement for g in gens52)
    with pytest.raises(ValidationError):
        johnson_aut_group(4, 1)


@pytest.mark.parametrize("l,m", [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3), (6, 4)])
def test_aut_group_order_matches_brute_force(l, m):
    g = johnson_graph(l, m)
    matcher = nx.algorithms.isomorphism.GraphMatcher(g, g)
    brute = sum(1 for _ in matcher.isomorphisms_iter())
    predicted = johnson_aut_group_order(l, m)
    assert predicted == math.factorial(l) * (2 if l == 2 * m else 1)
    assert brute == predicted


def test_aut_group_orders_expected_values():
    assert johnson_aut_group_order(5, 2) == 120
    assert johnson_aut_group_order(4, 2) == 48
