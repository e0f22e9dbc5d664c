import gc
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grassmann_lab
from grassmann_lab import oracle
from grassmann_lab.cli import main
from grassmann_lab.config import caps, set_caps
from grassmann_lab.embeddings import build_construction, classify, rebuild
from grassmann_lab.errors import ClassificationError, InternalInvariantError, ValidationError
from grassmann_lab.fields import GF
from grassmann_lab.grassmannian import GrassmannianSpec, pg_points
from grassmann_lab.johnson import JohnsonAut, johnson_aut_group, johnson_vertices
from grassmann_lab.oracle import SearchConfig, cross_validate, enumerate_embeddings
from grassmann_lab.subspaces import Subspace

from helpers import (enumerate_apartments, frame_count, image_subspace_sets,
                     johnson_aut_group_order, labeled_embeddings, memo_active, orbit_closure,
                     pgl_generators, reference_oracle_search, rref_calls)

F2 = GF.get(2)


def unit(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def test_apartment_count_frame_formula_and_direct_enumeration():
    assert frame_count(4, 2) == 840
    # direct quadruple enumeration agrees
    points = pg_points(F2, 4)
    from grassmann_lab import linalg
    count = sum(
        1 for combo in itertools.combinations(points, 4)
        if linalg.rank(F2, tuple(p.rows[0] for p in combo)) == 4)
    assert count == 840
    apartments = enumerate_apartments(F2, 4, 2)
    assert len(apartments) == 840


def test_apartments_at_k_equal_one():
    apartments = enumerate_apartments(F2, 4, 1)
    assert len(apartments) == 840
    assert all(len(a) == 4 for a in apartments)


def test_apartment_duality_count():
    primal = enumerate_apartments(F2, 4, 1)
    from grassmann_lab.subspaces import annihilator
    dual = {frozenset(annihilator(s) for s in apt) for apt in primal}
    assert len(dual) == len(primal) == 840
    assert all(all(s.dim == 3 for s in apt) for apt in dual)


def test_enumerate_embeddings_main_configuration():
    result = enumerate_embeddings(SearchConfig(l=4, m=2, n=4, k=2, p=2))
    assert result.complete
    assert result.nodes <= 10_000_000
    assert len(result.images) == 840
    assert image_subspace_sets(result) == enumerate_apartments(F2, 4, 2)


def test_every_constructed_image_is_found_by_the_oracle():
    result = enumerate_embeddings(SearchConfig(l=4, m=2, n=4, k=2, p=2))
    oracle_sets = image_subspace_sets(result)
    frames = [
        [unit(0, 4), unit(1, 4), unit(2, 4), unit(3, 4)],
        [unit(0, 4), unit(1, 4), unit(2, 4), (1, 1, 1, 1)],
        [(1, 1, 0, 0), unit(1, 4), unit(2, 4), unit(3, 4)],
    ]
    for vectors in frames:
        gens = [Subspace.line(F2, v) for v in vectors]
        inst = build_construction(Subspace.zero(F2, 4), gens, 2, False)
        assert inst.image in oracle_sets


def test_labeled_counts_factor_through_the_automorphism_group():
    # without symmetry breaking each image is found once per automorphism
    # of J(4,2), whose group has order 48
    labeled = labeled_embeddings(GrassmannianSpec(F2, 4, 2), 4, 2)
    assert johnson_aut_group_order(4, 2) == 48
    assert len(labeled) == 840 * 48
    assert len(set(labeled)) == len(labeled)


def test_symmetry_reduction_expands_to_the_full_set():
    full = enumerate_embeddings(SearchConfig(l=4, m=2, n=4, k=2, p=2))
    reduced = enumerate_embeddings(
        SearchConfig(l=4, m=2, n=4, k=2, p=2, symmetry_reduction=True))
    assert len(reduced.images) < len(full.images)
    assert orbit_closure(reduced.spec, reduced.images) == full.images


def test_pgl_generators_are_invertible_and_move_subspaces():
    for field, n in ((F2, 4), (GF.get(3), 3), (GF.get(2, 2), 3)):
        gens = pgl_generators(field, n)
        assert gens
        s = Subspace.line(field, unit(0, n))
        moved = {g.apply(s) for g in gens}
        assert any(img != s for img in moved)


def test_budget_exhaustion_flags_incomplete():
    result = enumerate_embeddings(SearchConfig(l=4, m=2, n=4, k=2, p=2, budget=100))
    assert not result.complete
    assert result.nodes > 100


def test_diameter_obstruction_yields_no_images():
    # J(6,3) has diameter 3 > min(k, n-k) = 2
    result = enumerate_embeddings(SearchConfig(l=6, m=3, n=4, k=2, p=2))
    assert result.complete and not result.images


def test_jobs_partitioning_is_deterministic():
    seq = enumerate_embeddings(SearchConfig(l=4, m=2, n=4, k=2, p=2))
    par = enumerate_embeddings(SearchConfig(l=4, m=2, n=4, k=2, p=2, jobs=2))
    assert par.images == seq.images
    assert par.complete
    # the floors depend only on the path below each root
    assert par.nodes == seq.nodes


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records the workers asked for and
    maps in this process, so no interpreter is started."""

    max_workers: list[int] = []

    def __init__(self, max_workers, mp_context):
        _InProcessPool.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return list(map(fn, iterable))


@pytest.fixture
def in_process_pool(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    _InProcessPool.max_workers = []
    return _InProcessPool


@pytest.mark.parametrize("jobs,cpus,workers", [
    (3, 64, 3), (1_000, 64, 35), (1_000, 2, 2), (2, None, 1),
])
def test_the_pool_starts_no_more_workers_than_chunks_or_cpus(in_process_pool, monkeypatch,
                                                             jobs, cpus, workers):
    # spawn starts one interpreter per submitted chunk up to max_workers;
    # G(4, 2, 2) has 35 roots, and cpu_count() may not know (None)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: cpus)
    seq = enumerate_embeddings(SearchConfig(l=4, m=2, n=4, k=2, p=2))
    par = enumerate_embeddings(SearchConfig(l=4, m=2, n=4, k=2, p=2, jobs=jobs))
    assert in_process_pool.max_workers == [workers]
    assert (par.images, par.nodes, par.complete) == (seq.images, seq.nodes, True)


@pytest.mark.parametrize("budget", [35, 100, 1_000, 3_592, 3_593])
@pytest.mark.parametrize("l", [4, 5])
def test_a_budget_stopped_search_is_the_serial_one_for_every_jobs_value(in_process_pool,
                                                                        l, budget):
    # the serial search spends 3,593 nodes on J(4, 2) and 6,532 on J(5, 2);
    # the parallel one must report its images and its node count, not jobs
    # times the budget
    seq = enumerate_embeddings(SearchConfig(l=l, m=2, n=4, k=2, p=2, budget=budget))
    for jobs in (2, 3, 35):
        par = enumerate_embeddings(SearchConfig(l=l, m=2, n=4, k=2, p=2, budget=budget,
                                                jobs=jobs))
        assert (par.images, par.nodes, par.complete) == (
            seq.images, seq.nodes, seq.complete), jobs
    assert seq.complete == (l == 4 and budget == 3_593)
    assert seq.nodes == (3_593 if seq.complete else budget + 1)


def test_budget_stopped_summaries_are_byte_identical_for_every_jobs_value(in_process_pool,
                                                                          capsys):
    outputs = set()
    for jobs in (1, 2, 3):
        assert main(["oracle", "--l", "4", "--m", "2", "--n", "4", "--k", "2", "--p", "2",
                     "--budget", "100", "--jobs", str(jobs)]) == 3
        outputs.add(capsys.readouterr().out)
    summary = json.loads(outputs.pop())
    assert not outputs
    assert (summary["nodes"], summary["image_count"]) == (101, 34)


@pytest.mark.parametrize("budget", [0, 1, 33, 34, 35, 36])
def test_the_search_alone_judges_a_budget_below_the_vertex_count(in_process_pool, capsys,
                                                                 budget):
    # G(4, 2, 2) has 35 planes, each one a root of J(5, 2): a budget below
    # that stops the search among its roots, at budget + 1 nodes, after
    # which the distance table is still checked
    spec = GrassmannianSpec(F2, 4, 2)
    want = reference_oracle_search(spec, oracle._plan(5, 2), budget, range(len(spec)))
    assert want[1] == budget + 1 and not want[2]
    outputs = set()
    for jobs in (1, 2):
        result = enumerate_embeddings(SearchConfig(l=5, m=2, n=4, k=2, p=2, budget=budget,
                                                   jobs=jobs))
        assert (result.images, result.nodes, result.complete) == want, jobs
        assert main(["oracle", "--l", "5", "--m", "2", "--n", "4", "--k", "2", "--p", "2",
                     "--budget", str(budget), "--jobs", str(jobs)]) == 3
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1
    summary = json.loads(outputs.pop())
    assert (summary["nodes"], summary["bfs_agrees"]) == (budget + 1, True)


def test_an_image_below_two_roots_is_an_internal_error(in_process_pool, monkeypatch):
    # without the floors of depth 0 each root still reaches an image once,
    # but every member of an image is a root that reaches it
    real = oracle._chain_floors
    monkeypatch.setattr(oracle, "_chain_floors",
                        lambda order, l, m: [[t for t in f if t] for f in real(order, l, m)])
    with pytest.raises(InternalInvariantError, match="second leaf"):
        enumerate_embeddings(SearchConfig(l=4, m=2, n=4, k=2, p=2))
    with pytest.raises(InternalInvariantError, match="below two roots"):
        enumerate_embeddings(SearchConfig(l=4, m=2, n=4, k=2, p=2, jobs=2))


def test_cross_validate_main_configuration():
    report = cross_validate(SearchConfig(l=4, m=2, n=4, k=2, p=2))
    assert report.ok
    assert report.bfs_agrees
    assert report.image_count == 840
    assert report.apartment_match is True
    assert report.tag_histogram == {"parabolic-apartment": 840}
    assert report.summary()["ok"] is True


def test_a_missing_apartment_fails_the_count():
    # every image left still classifies, so only the count can catch the gap
    cfg = SearchConfig(l=4, m=2, n=4, k=2, p=2)
    result = enumerate_embeddings(cfg)
    result.images.remove(min(result.images))
    report = cross_validate(cfg, result)
    assert report.complete and report.all_classified is True
    assert report.image_count == 839
    assert report.apartment_match is False
    assert report.ok is False


def _refuse_images_through(monkeypatch, vertex):
    """Make the oracle's classifier refuse every image holding vertex."""
    def refuse_one(members, table):
        if vertex in members:
            raise ClassificationError("refused")
        return classify(members, table=table)

    monkeypatch.setattr(oracle, "classify", refuse_one)


def test_the_apartment_count_rests_on_the_classification(monkeypatch):
    # the count proves nothing about an image the classifier refused
    cfg = SearchConfig(l=4, m=2, n=4, k=2, p=2)
    result = enumerate_embeddings(cfg)
    _refuse_images_through(monkeypatch, result.spec.by_id(0))
    report = cross_validate(cfg, result)
    assert report.image_count == 840 and report.all_classified is False
    assert report.apartment_match is False


def test_a_failing_summary_lists_its_failures_as_objects(monkeypatch, capsys):
    vertex_0 = GrassmannianSpec(F2, 4, 2).by_id(0)
    _refuse_images_through(monkeypatch, vertex_0)
    assert main(["oracle", "--l", "4", "--m", "2", "--n", "4", "--k", "2", "--p", "2"]) == 4
    failure = json.loads(capsys.readouterr().out)["failures"][0]
    assert failure["error"] == "refused"
    assert 0 in failure["image_ids"] and len(failure["rows"]) == len(failure["image_ids"]) == 6
    assert [list(r) for r in vertex_0.rows] in failure["rows"]


@pytest.mark.parametrize("p,images", [(2, 144), (3, 2_916)])
def test_reduced_search_counts_the_apartments_through_vertex_0(p, images):
    # frames * C(4, 2) / |G(4, 2, q)|: 840 * 6 / 35 and 63,180 * 6 / 130
    cfg = SearchConfig(l=4, m=2, n=4, k=2, p=p, symmetry_reduction=True)
    result = enumerate_embeddings(cfg)
    report = cross_validate(cfg, result)
    assert images == frame_count(4, p) * 6 // len(result.spec)
    assert report.image_count == images
    assert report.apartment_match is True and report.ok
    if p == 2:
        # the set equality the count stands for, by brute force
        vertex_0 = result.spec.by_id(0)
        assert image_subspace_sets(result) == {
            a for a in enumerate_apartments(F2, 4, 2) if vertex_0 in a}


def test_a_search_stopped_by_its_budget_has_no_apartment_count():
    report = cross_validate(SearchConfig(l=4, m=2, n=4, k=2, p=2, budget=1_000))
    assert report.complete is False
    assert report.apartment_match is None
    assert report.ok is False


def test_a_search_stopped_by_its_budget_classifies_nothing(monkeypatch):
    # the images of a stopped search are only some of them, so the report
    # leaves every classification check open, the parabolic one of l == 2m
    # too; the preflight still runs
    cfg = SearchConfig(l=4, m=2, n=4, k=2, p=2, budget=1_000)
    result = enumerate_embeddings(cfg)
    assert not result.complete and result.images
    calls = []
    monkeypatch.setattr(oracle, "classify", lambda *a, **kw: calls.append(1))
    report = cross_validate(cfg, result)
    assert calls == []
    assert report.bfs_agrees is True
    assert (report.all_classified, report.apartment_match) == (None, None)
    assert report.tag_histogram == {} and report.failures == []
    assert report.ok is False


def test_preflight_rejects_one_corrupted_symmetric_distance():
    # the preflight walks the distance bitsets the search reads, so one
    # pair moved between classes in both its rows must show; G(6,3,2) has
    # diameter 3, while in a diameter-2 graph a 1 <-> 2 swap is again a
    # consistent metric
    for n, k in ((4, 0), (4, 1), (4, 2)):
        assert oracle._bfs_distances_agree(GrassmannianSpec(F2, n, k))
    spec = GrassmannianSpec(F2, 6, 3)
    clean = spec.distance_sets()
    for was, now in ((3, 1), (1, 3)):
        j = (clean[0][was] & -clean[0][was]).bit_length() - 1
        sets = [list(row) for row in clean]
        for row, other in ((0, j), (j, 0)):
            sets[row][was] ^= 1 << other
            sets[row][now] ^= 1 << other
        spec._dist_sets = [tuple(row) for row in sets]
        assert not oracle._bfs_distances_agree(spec), (was, now)


def test_cross_validate_classifies_from_the_search_table(monkeypatch):
    # the bare classifier reads the members' rows of the distance table the
    # search read, so classification takes no distance by elimination, and
    # those rows give the classifications that computed rows give
    from grassmann_lab import grassmannian
    from grassmann_lab.jsonio import classification_to_json

    results = {l: enumerate_embeddings(SearchConfig(l=l, m=2, n=4, k=2, p=2)) for l in (4, 5)}
    real = grassmannian.distance
    calls = []

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(grassmannian, "distance", counting)
    report = cross_validate(SearchConfig(l=5, m=2, n=4, k=2, p=2), results[5])
    assert calls == []
    assert report.ok and report.tag_histogram == {"star": 168, "top": 168}
    monkeypatch.undo()
    for l, result in results.items():
        dmat = result.spec.distance_matrix()
        assert len(result.images) == {4: 840, 5: 336}[l]
        for image in result.images:
            ids = sorted(image)
            members = frozenset(result.spec.by_id(i) for i in ids)
            handed = classify(members, table=[bytes(dmat[i][j] for j in ids) for i in ids])
            computed = classify(members)
            assert classification_to_json(handed) == classification_to_json(computed)
            assert list(rebuild(handed).items()) == list(rebuild(computed).items())


@pytest.mark.parametrize("l,unmemoized,bound", [(4, 21_840, 6_000), (5, 20_160, 2_000)])
def test_cross_validate_eliminates_each_pair_once(l, unmemoized, bound):
    # images share edges and star centers, so one memo of pairwise sums and
    # meets per call cuts the eliminations of the classify loop; unmemoized
    # is the count when every image computed each of its pairs again
    cfg = SearchConfig(l=l, m=2, n=4, k=2, p=2)
    result = enumerate_embeddings(cfg)
    report, calls = rref_calls(lambda: cross_validate(cfg, result))
    assert report.ok
    assert calls <= bound < unmemoized


@pytest.mark.parametrize("l,unfiled", [(4, 10_697), (5, 7_658)])
def test_cross_validate_compares_its_members_by_identity(l, unfiled, monkeypatch):
    # the members are filed in the memo, so the sums and meets that rebuild
    # an image are its member objects; unfiled is the number of comparisons
    # of distinct but equal subspaces when the members are not filed
    cfg = SearchConfig(l=l, m=2, n=4, k=2, p=2)
    result = enumerate_embeddings(cfg)
    equal = Subspace.__eq__
    distinct = 0

    def counting(self, other):
        nonlocal distinct
        same = equal(self, other)
        distinct += same and self is not other
        return same

    monkeypatch.setattr(Subspace, "__eq__", counting)
    assert cross_validate(cfg, result).ok
    assert distinct <= 2_000 < unfiled


def test_memoized_classifications_equal_the_plain_ones():
    from grassmann_lab.jsonio import classification_to_json
    from grassmann_lab.subspaces import memoized

    result = enumerate_embeddings(SearchConfig(l=5, m=2, n=4, k=2, p=2))
    images = [frozenset(map(result.spec.by_id, image)) for image in sorted(result.images)]
    plain = [classification_to_json(classify(image)) for image in images]
    with memoized():
        assert [classification_to_json(classify(image)) for image in images] == plain


def test_no_memo_outlives_cross_validate(monkeypatch):
    cfg = SearchConfig(l=5, m=2, n=4, k=2, p=2)
    result = enumerate_embeddings(cfg)
    assert cross_validate(cfg, result).ok
    assert not memo_active()

    class Interrupt(BaseException):
        pass

    def interrupt(members, table):
        assert memo_active()
        raise Interrupt

    # the per-image `except Exception` does not catch it, so the loop raises
    monkeypatch.setattr(oracle, "classify", interrupt)
    with pytest.raises(Interrupt):
        cross_validate(cfg, result)
    assert not memo_active()


def test_cross_validate_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        cross_validate(SearchConfig(l=5, m=2, n=4, k=2, p=2))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cross_validate_skips_classification_for_degenerate_m():
    report = cross_validate(SearchConfig(l=3, m=1, n=4, k=2, p=2))
    assert report.complete
    assert report.all_classified is None
    assert report.apartment_match is None
    # m = 1 vertices are pairwise adjacent: every image is a 3-element
    # subset of a maximal clique, and they are merely counted
    assert report.image_count > 0
    assert report.ok


def test_larger_configuration_parabolic_shape():
    # images in a 5-space with l = 2m are apartments of parabolic
    # intervals with base dimension 0 and cover dimension 4
    result = enumerate_embeddings(SearchConfig(l=4, m=2, n=5, k=2, p=2))
    assert result.complete
    # independent count: one cover per 4-subspace, 840 apartments each
    covers = (2 ** 5 - 1) * (2 ** 4 - 1) * (2 ** 3 - 1) * (2 ** 2 - 1) // (
        (2 ** 4 - 1) * (2 ** 3 - 1) * (2 ** 2 - 1) * (2 - 1))
    assert covers == 31
    assert len(result.images) == 31 * 840
    sample = sorted(result.images)[::1000]
    for image in sample:
        members = frozenset(result.spec.by_id(i) for i in image)
        cls = classify(members)
        assert cls.case == "parabolic-apartment"
        assert cls.m_space.dim == 0 and cls.n_space.dim == 4


@pytest.mark.parametrize("l,reduced,nodes,images", [
    (4, False, 3_593, 840),
    (5, False, 6_532, 336),
    (4, True, 460, 144),
])
def test_search_effort_is_pinned(l, reduced, nodes, images):
    # node counts are part of the search's behaviour: a change in them is
    # a change in candidate order or pruning, not noise
    result = enumerate_embeddings(SearchConfig(l=l, m=2, n=4, k=2, p=2, jobs=1,
                                               symmetry_reduction=reduced))
    assert result.complete
    assert (result.nodes, len(result.images)) == (nodes, images)


def test_workers_inherit_caps():
    # n = 9 is above the default cap; spawned workers must get the override
    saved = caps()
    try:
        set_caps(n_max=9)
        runs = [enumerate_embeddings(SearchConfig(l=2, m=1, n=9, k=1, p=2, jobs=jobs))
                for jobs in (1, 2)]
    finally:
        set_caps(q_max=saved.q_max, n_max=saved.n_max,
                 graph_vertex_max=saved.graph_vertex_max)
    seq, par = runs
    assert seq.complete and par.complete
    assert par.images == seq.images
    assert par.nodes == seq.nodes
    assert len(seq.images) == 511 * 510 // 2


def _brute_force_floors(l, m):
    """Stabilizer-chain floors from Aut J(l, m) listed element by element:
    the closure of johnson_aut_group for 1 < m < l-1, all of S_l for the
    complete graphs J(l, 1) and J(l, l-1)."""
    vertices = johnson_vertices(l, m)
    position = {v: i for i, v in enumerate(vertices)}

    def as_vertex_perm(aut):
        return tuple(position[aut.apply(v)] for v in vertices)

    if 1 < m < l - 1:
        gens = [as_vertex_perm(g) for g in johnson_aut_group(l, m)]
        group = {tuple(range(len(vertices)))}
        frontier = list(group)
        while frontier:
            nxt = []
            for g in frontier:
                for h in gens:
                    gh = tuple(h[i] for i in g)
                    if gh not in group:
                        group.add(gh)
                        nxt.append(gh)
            frontier = nxt
    else:
        group = {as_vertex_perm(JohnsonAut(perm))
                 for perm in itertools.permutations(range(l))}
    order = [position[v] for v in oracle._bfs_vertex_order(l, m)]
    floors = [[] for _ in order]
    stabilizer = list(group)
    for t, base in enumerate(order):
        orbit = {g[base] for g in stabilizer}
        for s in range(t + 1, len(order)):
            if order[s] in orbit:
                floors[s].append(t)
        stabilizer = [g for g in stabilizer if g[base] == base]
    return floors


@pytest.mark.parametrize("l,m", [(l, m) for l in range(2, 8) for m in range(1, l)])
def test_chain_floors_match_a_brute_force_stabilizer_chain(l, m):
    order = oracle._bfs_vertex_order(l, m)
    assert oracle._chain_floors(order, l, m) == _brute_force_floors(l, m)


def _case(l, m, aut_order, images, n=4, k=2, p=2, e=1):
    # the Grassmannian stays out of the id, which G(4, 2, 2) cases had alone
    grassmannian = "" if (n, k, p, e) == (4, 2, 2, 1) else f"-G{n}{k}q{p ** e}"
    return pytest.param(l, m, n, k, p, e, aut_order, images,
                        id=f"{l}-{m}-{aut_order}-{images}{grassmannian}")


@pytest.mark.parametrize("l,m,n,k,p,e,aut_order,images", [
    _case(4, 2, 48, 840),
    _case(5, 2, 120, 336),
    _case(3, 1, 6, 945),
    # m = 1: every 3-set of points, 13 * 12 * 11 and 21 * 20 * 19 labelings
    _case(3, 1, 6, 286, n=3, k=1, p=3),
    _case(3, 1, 6, 1_330, n=3, k=1, p=2, e=2),
])
def test_pruned_images_are_the_projected_labeled_images(l, m, n, k, p, e, aut_order, images):
    # the reference is a separate backtracker over rank distances with no
    # symmetry breaking, so a fault of the search loop shows on one side only
    pruned = enumerate_embeddings(SearchConfig(l=l, m=m, n=n, k=k, p=p, e=e))
    labeled = labeled_embeddings(pruned.spec, l, m)
    assert pruned.complete
    assert len(labeled) == images * aut_order
    assert pruned.images == {tuple(sorted(image)) for image in labeled}
    assert len(pruned.images) == images


@pytest.mark.parametrize("l,through_0", [(4, 144), (5, 96)])
def test_reduced_images_are_the_projected_labelings_of_vertex_0_on_id_0(l, through_0):
    # the reduced search places the first Johnson vertex on id 0 only
    reduced = enumerate_embeddings(SearchConfig(l=l, m=2, n=4, k=2, p=2,
                                                symmetry_reduction=True))
    labeled = labeled_embeddings(reduced.spec, l, 2)
    assert reduced.complete
    assert reduced.images == {tuple(sorted(image)) for image in labeled if image[0] == 0}
    assert len(reduced.images) == through_0


def test_apartment_count_over_gf3():
    # one image per independent point frame of PG(3, 3)
    result = enumerate_embeddings(SearchConfig(l=4, m=2, n=4, k=2, p=3))
    assert result.complete
    assert len(result.images) == frame_count(4, 3) == 63_180


def test_a_repeated_leaf_is_an_internal_error(monkeypatch):
    # without floors each image is reached once per labeling
    monkeypatch.setattr(oracle, "_chain_floors", lambda order, l, m: [[] for _ in order])
    with pytest.raises(InternalInvariantError, match="second leaf"):
        enumerate_embeddings(SearchConfig(l=4, m=2, n=4, k=2, p=2))


# (l, m, n, k, p): J(l, m) in G(n, k, q).  J(3, 1) and J(2, 1) have leaf
# batches of many leaves; J(2, 1) has no depth above its leaf-parents
SEARCH_CASES = [(4, 2, 4, 2, 2), (5, 2, 4, 2, 2), (5, 3, 4, 2, 2),
                (4, 2, 5, 2, 2), (5, 2, 5, 2, 2), (5, 3, 5, 2, 2),
                (4, 2, 4, 2, 3), (3, 1, 3, 1, 3), (2, 1, 3, 1, 3)]


def _leaf_cut(spec, plan, roots):
    """The least budget above 0 that stops the reference on a leaf, so
    inside the batch of that leaf's parent."""
    def count(budget):
        return len(reference_oracle_search(spec, plan, budget, roots)[0])
    return next(b for b in itertools.count(1) if count(b + 1) > count(b))


@pytest.mark.parametrize("roots", ["first", "all", "strided"])
@pytest.mark.parametrize("l,m,n,k,p", SEARCH_CASES)
def test_search_matches_the_generator_stack_reference(l, m, n, k, p, roots):
    # images, node count and completeness, at budgets that stop the search
    # at its first nodes, inside a leaf batch, one node short and exactly
    # at its end; the strided roots are one chunk of a --jobs 4 run
    spec = GrassmannianSpec(GF.get(p), n, k)
    plan = oracle._plan(l, m)
    everything = list(range(len(spec)))
    roots = {"first": [0], "all": everything, "strided": everything[1::4]}[roots]
    budgets = [0, 1, 2, _leaf_cut(spec, plan, roots)]
    # the searches of J(5, *) in G(5, 2, 2) from every root take over
    # 600,000 nodes; their other root lists run to the end
    if (l, n) != (5, 5) or len(roots) < len(everything):
        full = reference_oracle_search(spec, plan, 10 ** 9, roots)
        assert full[2] and full[0]
        assert oracle._search(spec, plan, full[1], roots) == full
        budgets.append(full[1] - 1)
    for budget in budgets:
        want = reference_oracle_search(spec, plan, budget, roots)
        assert oracle._search(spec, plan, budget, roots) == want, budget
        assert want[1] == budget + 1 and not want[2]


@pytest.mark.parametrize("l,m,n,k,p", [(3, 1, 3, 1, 3), (2, 1, 3, 1, 3)])
def test_every_budget_of_a_small_search_matches_the_reference(l, m, n, k, p):
    spec = GrassmannianSpec(GF.get(p), n, k)
    plan = oracle._plan(l, m)
    roots = list(range(len(spec)))
    nodes = reference_oracle_search(spec, plan, 10 ** 9, roots)[1]
    for budget in range(nodes + 2):
        assert (oracle._search(spec, plan, budget, roots)
                == reference_oracle_search(spec, plan, budget, roots)), budget


@pytest.mark.parametrize("l,m,n,k,p", [(4, 2, 4, 2, 2), (3, 1, 3, 1, 3), (2, 1, 3, 1, 3)])
def test_a_repeated_leaf_names_the_references_first_repeat(l, m, n, k, p):
    # without floors, a batch meets the images of an earlier one
    spec = GrassmannianSpec(GF.get(p), n, k)
    jdist, floors = oracle._plan(l, m)
    plan = jdist, [[] for _ in floors]
    roots = list(range(len(spec)))
    with pytest.raises(InternalInvariantError) as want:
        reference_oracle_search(spec, plan, 10 ** 9, roots)
    with pytest.raises(InternalInvariantError) as got:
        oracle._search(spec, plan, 10 ** 9, roots)
    assert str(got.value) == str(want.value)


def test_more_johnson_vertices_than_subspaces_yields_no_images_at_once():
    # C(64, 3) = 41,664 Johnson vertices and 1,395 planes of F_2^6 settle
    # it before the Johnson vertices are ordered, in quadratic time.  A
    # child process, so a regression fails at the timeout instead of hanging
    script = ("from grassmann_lab.oracle import SearchConfig, enumerate_embeddings\n"
              "r = enumerate_embeddings(SearchConfig(l=64, m=3, n=6, k=3, p=2))\n"
              "print(r.complete, len(r.images), r.nodes)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(grassmann_lab.__file__).parents[1]),
               GRASSMANN_LAB_CAPS="")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "0", "0"]


@pytest.mark.parametrize("field,value,message", [
    ("jobs", 0, "need at least one job, got jobs=0"),
    ("budget", -1, "need a budget of at least 0 nodes, got -1"),
], ids=["jobs", "budget"])
def test_search_config_rejects_bad_jobs_and_budget(field, value, message):
    with pytest.raises(ValidationError, match=message):
        SearchConfig(l=4, m=2, n=4, k=2, p=2, **{field: value})
