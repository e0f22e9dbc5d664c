"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every expected value is pinned from an oracle independent of the
code path it checks.
"""

import itertools

import networkx as nx

from grassmann_lab import linalg
from grassmann_lab.embeddings import build_construction, classify, rebuild
from grassmann_lab.fields import GF
from grassmann_lab.grassmannian import GrassmannianSpec, iter_rref_bases
from grassmann_lab.independence import search_m_independent
from grassmann_lab.jsonio import rigidity_report_to_json
from grassmann_lab.johnson import johnson_vertices
from grassmann_lab.linalg import nullspace
from grassmann_lab.oracle import SearchConfig, enumerate_embeddings
from grassmann_lab.rigidity import ExtensionWitness, NotExtendable, is_rigid
from grassmann_lab.subspaces import (Subspace, annihilator, from_coords_in,
                                     lift_from_quotient, sum_many)

from helpers import (enumerate_apartments, frame_count, image_subspace_sets,
                     johnson_adjacent, johnson_aut_group_order, star, top)

F2 = GF.get(2)


def unit(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def q_binomial_recursive(n, k, q, _memo={}):
    """Independent counting oracle (Pascal-type recursion)."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    key = (n, k, q)
    if key not in _memo:
        _memo[key] = (q_binomial_recursive(n - 1, k - 1, q, _memo)
                      + q ** k * q_binomial_recursive(n - 1, k, q, _memo))
    return _memo[key]


def test_criterion_1_every_image_is_an_apartment_when_n_is_2k():
    cfg = SearchConfig(l=4, m=2, n=4, k=2, p=2, budget=10_000_000)
    result = enumerate_embeddings(cfg)
    assert result.complete, "enumeration must finish within 10^7 nodes"
    assert result.nodes <= 10_000_000
    apartments = enumerate_apartments(F2, 4, 2)
    assert frame_count(4, 2) == 840
    assert len(result.images) == 840
    assert image_subspace_sets(result) == apartments
    print(f"\nACCEPTANCE 1 PASS: (l=4,m=2,n=4,k=2,q=2) complete in {result.nodes} "
          f"nodes; 840 images equal the 840 apartments exactly")


GRID_RESULTS = {}


def _grid_points():
    for q in (2, 3):
        for n in (4, 5, 6):
            for k in (2, 3):
                if not 1 < k < n - 1 or min(k, n - k) < 2:
                    continue
                for l in (4, 5, 6):
                    yield q, n, k, l


def test_criterion_2_constructions_classify_back_to_their_type():
    m = 2
    built = skipped = 0
    failures = []
    star_classifications = []
    for q, n, k, l in _grid_points():
        field = GF.get(q)
        need = min(2 * m, l)
        # primal side: generators over a (k-2)-dimensional base
        base = Subspace.from_rows(field, n, linalg.identity(n)[:k - m])
        quot_dim = n - (k - m)
        found = search_m_independent(field, quot_dim, need, l, budget=2_000_000)
        if found.status == "found":
            gens = [lift_from_quotient(base, (row,)) for row in found.points]
            inst = build_construction(base, gens, k, False)
            cls = classify(inst)
            expected = "parabolic-apartment" if l == 2 * m else "star"
            if cls.case != expected:
                failures.append((q, n, k, l, "sum", cls.case))
            if frozenset(rebuild(cls).values()) != inst.image or cls.image != inst.image:
                failures.append((q, n, k, l, "sum", "rebuild mismatch"))
            if frozenset(cls.star_points) != frozenset(gens):
                failures.append((q, n, k, l, "sum", "generators not recovered"))
            star_classifications.append((l, m, cls))
            built += 1
        else:
            assert found.status == "infeasible", f"search unresolved at {(q, n, k, l)}"
            skipped += 1
        # dual side: hyperplane generators under a (k+2)-dimensional cover
        cover = Subspace.from_rows(field, n, linalg.identity(n)[:k + m])
        found = search_m_independent(field, k + m, need, l, budget=2_000_000)
        if found.status == "found":
            hyps = [from_coords_in(cover, nullspace(field, (row,), k + m))
                    for row in found.points]
            inst = build_construction(cover, hyps, k, True)
            cls = classify(inst)
            expected = "parabolic-apartment" if l == 2 * m else "top"
            if cls.case != expected:
                failures.append((q, n, k, l, "dual", cls.case))
            if frozenset(rebuild(cls).values()) != inst.image or cls.image != inst.image:
                failures.append((q, n, k, l, "dual", "rebuild mismatch"))
            if frozenset(cls.top_points) != frozenset(hyps):
                failures.append((q, n, k, l, "dual", "generators not recovered"))
            if cls.star_points is not None:
                star_classifications.append((l, m, cls))
            built += 1
        else:
            assert found.status == "infeasible", f"search unresolved at {(q, n, k, l)}"
            skipped += 1
    assert not failures, failures
    assert built >= 30, f"grid produced only {built} constructions"
    GRID_RESULTS["star_classifications"] = star_classifications
    print(f"\nACCEPTANCE 2 PASS: {built} constructions on the grid classified back "
          f"to their own type with exact rebuilds ({skipped} infeasible generating "
          f"sets certified and skipped); 0 failures")


def test_criterion_3_distance_formula_and_duality_isomorphism():
    for n in (4, 5):
        spec = GrassmannianSpec(F2, n, 2)
        g = nx.Graph()
        g.add_nodes_from(range(len(spec)))
        dmat = spec.distance_matrix()
        for i in range(len(spec)):
            for j in range(i + 1, len(spec)):
                if dmat[i][j] == 1:
                    g.add_edge(i, j)
        for src, lengths in nx.all_pairs_shortest_path_length(g):
            for dst in range(len(spec)):
                assert lengths[dst] == dmat[src][dst]
    spec = GrassmannianSpec(F2, 4, 2)
    pairs = 0
    for s, u in itertools.combinations(spec.subspaces, 2):
        d_primal = linalg.rank(F2, s.rows + u.rows) - 2
        sa, ua = annihilator(s), annihilator(u)
        d_dual = linalg.rank(F2, sa.rows + ua.rows) - 2
        assert (d_primal == 1) == (d_dual == 1)
        pairs += 1
    assert pairs == 595
    for rows in iter_rref_bases(F2, 4, 1):
        m_space = Subspace(F2, 4, rows)
        assert {annihilator(s) for s in star(m_space)} == top(annihilator(m_space))
    for rows in iter_rref_bases(F2, 4, 3):
        n_space = Subspace(F2, 4, rows)
        assert {annihilator(s) for s in top(n_space)} == star(annihilator(n_space))
    print("\nACCEPTANCE 3 PASS: distance formula equals BFS on both graphs; "
          "the annihilator map is an isomorphism on all 595 pairs and swaps "
          "stars with tops")


def test_criterion_4_generator_family_invariants_on_the_grid():
    star_classifications = GRID_RESULTS.get("star_classifications")
    if star_classifications is None:
        test_criterion_2_constructions_classify_back_to_their_type()
        star_classifications = GRID_RESULTS["star_classifications"]
    checked = 0
    for l, m, cls in star_classifications:
        field, n, k = cls.field, cls.n, cls.k
        gens = cls.star_points
        # members are sums of m generators
        expected_image = frozenset(
            sum_many(field, n, (gens[i] for i in combo))
            for combo in itertools.combinations(range(l), m))
        assert expected_image == cls.image
        # every 2m-subset of generators spans dimension k+m
        for combo in itertools.combinations(range(l), 2 * m):
            span = sum_many(field, n, (gens[i] for i in combo))
            assert span.dim == k + m
        # the hull obeys k+m <= dim N <= k-m+l
        assert k + m <= cls.n_space.dim <= k - m + l
        checked += 1
    assert checked >= 15
    print(f"\nACCEPTANCE 4 PASS: sum-of-generators membership, (k+m)-dimensional "
          f"2m-spans, and the hull bound hold for all {checked} recovered "
          f"generator families")


def test_criterion_5_rigidity_positive_cases():
    frame = [Subspace.line(F2, unit(i, 4)) for i in range(4)]
    apartment = build_construction(Subspace.zero(F2, 4), frame, 2, False)
    report = is_rigid(apartment)
    assert report.is_rigid is True
    duality_witnesses = [o for aut, o in report.per_automorphism
                         if aut.complement and isinstance(o, ExtensionWitness)]
    assert len(duality_witnesses) == 1
    assert duality_witnesses[0].kind == "duality"
    written = [e["witness"] for e in rigidity_report_to_json(report)["per_automorphism"]
               if e["complement"]]
    assert [(w["kind"], w["codomain_is_dual"]) for w in written] == [("duality", True)]
    simplex_vectors = [unit(i, 4) for i in range(4)] + [(1, 1, 1, 1)]
    gens = [Subspace.line(F2, v) for v in simplex_vectors]
    faces = build_construction(Subspace.zero(F2, 4), gens, 2, False)
    report5 = is_rigid(faces)
    assert report5.is_rigid is True
    assert report5.unique_pgl_extension is True
    assert report5.rigidity_case == "simplex-faces-star"
    print("\nACCEPTANCE 5 PASS: the apartment at n=2k=4 is rigid with a duality "
          "witness for complementation; the simplex-face family is rigid with a "
          "unique projective extension")


def test_criterion_6_rigidity_negative_case():
    x6_vectors = [unit(i, 6) for i in range(4)] + [(1, 1, 1, 1, 0, 0), unit(4, 6)]
    gens = [Subspace.line(F2, v) for v in x6_vectors]
    inst = build_construction(Subspace.zero(F2, 6), gens, 2, False)
    report = is_rigid(inst)
    assert report.is_rigid is False
    refusals = [(aut, o) for aut, o in report.per_automorphism
                if isinstance(o, NotExtendable)]
    assert any(aut.perm == (0, 1, 2, 3, 5, 4) for aut, _ in refusals)
    for _, outcome in refusals:
        assert outcome.diagnostics
        assert all(d.kind is not None for d in outcome.diagnostics)
    # the generators are neither independent nor a simplex
    assert report.rigidity_case == "none"
    print(f"\nACCEPTANCE 6 PASS: the six-point family in a 6-space yields a "
          f"non-rigid image; {len(refusals)} transposition(s) carry certified "
          f"non-extendability records")


def test_criterion_7_johnson_automorphisms_and_diameters():
    for l, m, order in ((5, 2, 120), (4, 2, 48)):
        vertices = johnson_vertices(l, m)
        g = nx.Graph()
        g.add_nodes_from(vertices)
        for a, b in itertools.combinations(vertices, 2):
            if johnson_adjacent(a, b, m):
                g.add_edge(a, b)
        matcher = nx.algorithms.isomorphism.GraphMatcher(g, g)
        brute = sum(1 for _ in matcher.isomorphisms_iter())
        assert brute == order == johnson_aut_group_order(l, m)
    for l in range(2, 9):
        for m in range(1, l):
            vertices = johnson_vertices(l, m)
            g = nx.Graph()
            g.add_nodes_from(vertices)
            for a, b in itertools.combinations(vertices, 2):
                if johnson_adjacent(a, b, m):
                    g.add_edge(a, b)
            assert nx.diameter(g) == min(m, l - m)
    print("\nACCEPTANCE 7 PASS: automorphism group orders 120 and 48 match "
          "brute force; BFS diameters equal min(m, l-m) for every l <= 8")


def test_criterion_8_subspace_counts_match_gaussian_binomials():
    checked = 0
    for q, (p, e) in {2: (2, 1), 3: (3, 1), 4: (2, 2)}.items():
        field = GF.get(p, e)
        for n in range(1, 7):
            for k in range(n + 1):
                count = sum(1 for _ in iter_rref_bases(field, n, k))
                assert count == q_binomial_recursive(n, k, q)
                checked += 1
    assert checked == 81
    print(f"\nACCEPTANCE 8 PASS: all {checked} enumerated cardinalities match "
          f"the independent Gaussian-binomial recursion (n <= 6, q in 2,3,4)")
