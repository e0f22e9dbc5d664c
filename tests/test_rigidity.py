import functools
import itertools
import json
import random

import pytest

from grassmann_lab import linalg
from grassmann_lab.embeddings import build_construction, classify
from grassmann_lab.errors import ValidationError
from grassmann_lab.fields import GF
from grassmann_lab.independence import canonical_simplex, search_m_independent
from grassmann_lab.johnson import JohnsonAut
from grassmann_lab.cli import main
from grassmann_lab.jsonio import (classification_from_json, classification_to_json,
                                  embedding_from_json, rigidity_report_to_json)
from grassmann_lab.rigidity import (ExtensionWitness, NotExtendable, extend_automorphism,
                                    induced_by_semilinear, is_rigid,
                                    solve_semilinear_mapping)
from grassmann_lab.subspaces import (Subspace, annihilator, contragredient, memoized,
                                     sum_subspaces)

from helpers import vectors

F2 = GF.get(2)
F3 = GF.get(3)
F4 = GF.get(2, 2)


def unit(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def lines(field, rows):
    return [Subspace.line(field, row) for row in rows]


def basis_lines(field, n):
    return lines(field, [unit(i, n) for i in range(n)])


def x6_points(field=F2):
    return lines(field, [unit(i, 6) for i in range(4)] + [(1, 1, 1, 1, 0, 0), unit(4, 6)])


def test_simplex_admits_every_permutation():
    simplex = lines(F2, canonical_simplex(4, 3))
    for perm in itertools.permutations(range(4)):
        outcome = induced_by_semilinear(simplex, perm)
        assert isinstance(outcome, ExtensionWitness)
        for i, p in enumerate(simplex):
            assert outcome.map.apply(p) == simplex[perm[i]]


def test_basis_admits_every_permutation_with_monomial_witness():
    points = basis_lines(F3, 3)
    for perm in itertools.permutations(range(3)):
        outcome = induced_by_semilinear(points, perm)
        assert isinstance(outcome, ExtensionWitness)
        mat = outcome.map.matrix
        assert all(sum(1 for x in row if x) == 1 for row in mat)


def test_x6_transposition_not_extendable():
    ps = x6_points()
    outcome = induced_by_semilinear(ps, (0, 1, 2, 3, 5, 4))
    assert isinstance(outcome, NotExtendable)
    # the greedy basis of the points is 0-3 and 5, that of their targets
    # 0-4: a map would send the basis onto a dependent set
    assert [(d.sigma, d.kind, d.point) for d in outcome.diagnostics] == [(None, "basis", 4)]


def test_no_frobenius_twist_swaps_two_frame_points_over_gf4():
    # points 0-3 are a frame of F4^3, so a map swapping points 0 and 1 sends
    # point 4 = (1, w, w) to a multiple of (s(w), 1, s(w)) for its twist s:
    # equal first and third coordinates, which (1, w, w) does not have
    ps = lines(F4, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 2)])
    outcome = induced_by_semilinear(ps, (1, 0, 2, 3, 4))
    assert isinstance(outcome, NotExtendable)
    assert [(d.sigma, d.kind, d.point, d.searched) for d in outcome.diagnostics] == [
        (0, "ratio", 4, 5), (1, "ratio", 4, 5)]


def test_x6_other_transpositions_extendable():
    ps = x6_points()
    for perm in [(1, 0, 2, 3, 4, 5), (0, 1, 2, 4, 3, 5)]:
        outcome = induced_by_semilinear(ps, perm)
        assert isinstance(outcome, ExtensionWitness)
        # the points span the hyperplane of pivot columns 0-4; the witness
        # fixes the standard basis vector outside it
        assert outcome.map.apply_vector(unit(5, 6)) == unit(5, 6)


def test_duality_search_runs_on_the_span_of_the_generators(tmp_path, monkeypatch):
    # the four star generators of this J(4, 2) image span a hyperplane of
    # F_3^6; the duality realizing the complement is found for the first
    # twist, propagating over all four points
    import grassmann_lab.rigidity as rig
    from grassmann_lab import jsonio
    from grassmann_lab.cli import main
    emb = tmp_path / "emb.json"
    assert main(["build", "sum", "--p", "3", "--n", "6", "--k", "3", "--m", "2", "--l", "4",
                 "--output", str(emb)]) == 0
    cls = classify(jsonio.embedding_from_json(jsonio.load_json(str(emb))))
    solves = []
    real = rig.solve_semilinear_mapping

    def recording(*args):
        solves.append(real(*args))
        return solves[-1]

    monkeypatch.setattr(rig, "solve_semilinear_mapping", recording)
    outcome = extend_automorphism(cls, JohnsonAut(tuple(range(4)), complement=True))
    assert isinstance(outcome, ExtensionWitness) and outcome.kind == "duality"
    [(_, diagnostics, resolved)] = solves
    assert resolved
    assert [(d.sigma, d.kind, d.point, d.searched) for d in diagnostics] == [(0, None, None, 4)]


def test_solver_refuses_pairs_of_unequal_dimension():
    pairs = [(Subspace.line(F2, unit(0, 3)), Subspace.from_rows(F2, 3, [unit(0, 3), unit(1, 3)]))]
    with pytest.raises(ValidationError):
        solve_semilinear_mapping(F2, 3, pairs)


def test_solver_misses_when_the_spans_differ_in_dimension():
    # three lines spanning a plane cannot go onto three lines spanning F_2^3
    sources = [Subspace.line(F2, v) for v in ((1, 0, 0), (0, 1, 0), (1, 1, 0))]
    targets = basis_lines(F2, 3)
    smap, diagnostics, resolved = solve_semilinear_mapping(F2, 3, list(zip(sources, targets)))
    assert smap is None and resolved
    assert [(d.sigma, d.kind, d.point) for d in diagnostics] == [(None, "span", 2)]


def test_one_pair_family_is_its_own_meet():
    # a single pair has no points over its meet: any map of the source
    # onto the target witnesses it
    src, dst = Subspace.line(F3, (1, 2, 0)), Subspace.line(F3, (0, 1, 1))
    smap, diagnostics, resolved = solve_semilinear_mapping(F3, 3, [(src, dst)])
    assert resolved and smap.apply(src) == dst
    assert [(d.sigma, d.kind, d.searched) for d in diagnostics] == [(0, None, 0)]
    outcome = induced_by_semilinear([Subspace.line(F3, (1, 2, 0))], (0,))
    assert isinstance(outcome, ExtensionWitness)


def test_induced_by_semilinear_rejects_non_permutation():
    ps = x6_points()
    with pytest.raises(ValidationError):
        induced_by_semilinear(ps, (0, 0, 2, 3, 4, 5))


def test_dual_transport_both_directions():
    simplex = lines(F2, canonical_simplex(4, 4))
    perm = (1, 2, 3, 4, 0)
    outcome = induced_by_semilinear(simplex, perm)
    assert isinstance(outcome, ExtensionWitness)
    u = outcome.map
    # the contragredient realizes the same permutation on the annihilators
    for i, p in enumerate(simplex):
        assert contragredient(u).apply(annihilator(p)) == annihilator(simplex[perm[i]])
    # the hyperplanes themselves meet in 0, so they are not points over
    # their meet, and the solver refuses them
    pairs = [(annihilator(simplex[i]), annihilator(simplex[perm[i]]))
             for i in range(5)]
    with pytest.raises(ValidationError):
        solve_semilinear_mapping(F2, 4, pairs)


def test_apartment_rigid_with_duality_for_complement():
    inst = build_construction(Subspace.zero(F2, 4), basis_lines(F2, 4), 2, False)
    report = is_rigid(inst)
    assert report.is_rigid is True
    assert report.rigidity_case == "parabolic-apartment"
    assert report.unique_pgl_extension is False
    complement_outcomes = [o for aut, o in report.per_automorphism if aut.complement]
    assert len(complement_outcomes) == 1
    witness = complement_outcomes[0]
    assert isinstance(witness, ExtensionWitness) and witness.kind == "duality"
    assert [e["witness"]["codomain_is_dual"] for e in rigidity_report_to_json(report)[
        "per_automorphism"] if e["complement"]] == [True]
    # the found duality sends each frame point into the dual frame point
    for i, line in enumerate(basis_lines(F2, 4)):
        image = witness.map.apply(line)
        assert image == annihilator(Subspace.from_rows(
            F2, 4, [unit(j, 4) for j in range(4) if j != i]))


def test_complement_not_extendable_when_n_differs_from_2k():
    base = Subspace.line(F2, unit(0, 5))
    gens = [Subspace.from_rows(F2, 5, (unit(0, 5), unit(i, 5))) for i in range(1, 5)]
    inst = build_construction(base, gens, 3, False)  # J(4,2) image, n=5, k=3
    cls = classify(inst)
    assert cls.case == "parabolic-apartment"
    comp = JohnsonAut(tuple(range(4)), complement=True)
    outcome = extend_automorphism(cls, comp)
    assert isinstance(outcome, NotExtendable)
    assert "n = 2k" in outcome.reason
    # the meets m_space and annihilator(n_space) differ in dimension
    assert [(d.sigma, d.kind) for d in outcome.diagnostics] == [(None, "span")]
    report = is_rigid(cls)
    assert report.is_rigid is False  # only the complement fails
    perm_outcomes = [o for aut, o in report.per_automorphism if not aut.complement]
    assert all(isinstance(o, ExtensionWitness) for o in perm_outcomes)


def test_apartment_rigid_when_l_not_2m():
    inst = build_construction(Subspace.zero(F2, 5), basis_lines(F2, 5), 2, False)
    report = is_rigid(inst)
    assert report.is_rigid is True
    assert report.rigidity_case == "parabolic-apartment-star"
    assert all(isinstance(o, ExtensionWitness) and o.kind == "semilinear"
               for _, o in report.per_automorphism)


def test_simplex_faces_rigid_with_unique_extension():
    pts = canonical_simplex(4, 4)
    inst = build_construction(Subspace.zero(F2, 4), lines(F2, pts), 2, False)
    report = is_rigid(inst)
    assert report.is_rigid is True
    assert report.rigidity_case == "simplex-faces-star"
    assert report.unique_pgl_extension is True
    # uniqueness by brute force: the identity is the only semilinear map
    # of F_2^4 fixing every point of the simplex
    _, index, group = semilinear_group(2, 1, 4)
    fixed = [index[row] for row in pts]
    assert sum(all(g[i] == i for i in fixed) for g in group) == 1


def test_dual_simplex_faces_rigid():
    hyperplanes = [annihilator(p) for p in lines(F2, canonical_simplex(4, 4))]
    inst = build_construction(Subspace.full(F2, 4), hyperplanes, 2, True)
    cls = classify(inst)
    assert cls.case == "top"
    report = is_rigid(cls)
    assert report.is_rigid is True
    assert report.rigidity_case == "simplex-faces-top"
    assert report.unique_pgl_extension is True
    # witnesses act on the primal space and realize the permutation there
    for aut, outcome in report.per_automorphism:
        assert isinstance(outcome, ExtensionWitness)
        for j in range(5):
            assert outcome.map.apply(hyperplanes[j]) == hyperplanes[aut.perm[j]]


def test_x6_sum_construction_not_rigid():
    gens = x6_points()
    inst = build_construction(Subspace.zero(F2, 6), gens, 2, False)
    report = is_rigid(inst)
    assert report.is_rigid is False
    assert report.rigidity_case == "none"
    failed = [aut for aut, o in report.per_automorphism if isinstance(o, NotExtendable)]
    assert any(aut.perm == (0, 1, 2, 3, 5, 4) for aut in failed)
    succeeded = [aut for aut, o in report.per_automorphism
                 if isinstance(o, ExtensionWitness)]
    assert succeeded  # some transpositions do extend


def test_nonexistence_bound_every_large_l_instance_not_rigid():
    # when l exceeds max(k, n-k) + m' + 1, generators can be neither
    # independent nor a simplex, so some transposition must fail
    found = search_m_independent(F2, 6, 4, 8, budget=500_000)
    assert found.status == "found"
    gens = lines(F2, found.points)
    inst = build_construction(Subspace.zero(F2, 6), gens, 2, False)
    assert inst.l == 8 and inst.l > max(2, 4) + 2 + 1
    report = is_rigid(inst)
    assert report.is_rigid is False
    assert report.rigidity_case == "none"


def test_quotient_witnesses_respect_the_base_space():
    base = Subspace.line(F3, unit(0, 5))
    gens = [Subspace.from_rows(F3, 5, (unit(0, 5), unit(i, 5))) for i in range(1, 5)]
    inst = build_construction(base, gens, 3, False)
    cls = classify(inst)
    report = is_rigid(cls)
    assert report.is_rigid is False  # complement fails, n != 2k
    for aut, outcome in report.per_automorphism:
        if isinstance(outcome, ExtensionWitness):
            assert outcome.map.apply(base) == base
            for j, g in enumerate(gens):
                assert outcome.map.apply(g) == gens[aut.perm[j]]


def test_extension_search_over_extension_field():
    # a Frobenius twist is required when the permutation conjugates a
    # GF(4)-rational configuration
    omega = 2
    points = lines(F4, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, omega, 0)])
    outcome = induced_by_semilinear(points, (0, 1, 2, 3, 4))
    assert isinstance(outcome, ExtensionWitness)
    swap = induced_by_semilinear(points, (1, 0, 2, 3, 4))
    if isinstance(swap, ExtensionWitness):
        for i, p in enumerate(points):
            target = points[(1, 0, 2, 3, 4)[i]]
            assert swap.map.apply(p) == target


def test_gf16_duality_is_decided_exactly(tmp_path, capsys):
    # the duality of this GF(16) J(4, 2) image was out of reach of an
    # exhaustive search; the frame decides it like any other
    from grassmann_lab.cli import main
    emb = tmp_path / "emb.json"
    assert main(["build", "dual", "--p", "2", "--e", "4", "--n", "6", "--k", "3", "--m", "2",
                 "--l", "4", "--output", str(emb)]) == 0
    capsys.readouterr()
    assert main(["rigidity", "--input", str(emb)]) == 0
    assert json.loads(capsys.readouterr().out)["is_rigid"] is True


def test_rigidity_agrees_with_structure_across_the_grid():
    # on the construction grid, rigidity holds exactly when the recovered
    # generators are independent (a parabolic apartment) or a simplex,
    # with the l = 2m case additionally requiring n = 2k
    from grassmann_lab.independence import is_independent, simplex_rank
    checked = 0
    for q in (2, 3):
        field = GF.get(q)
        for n in (4, 5, 6):
            for k in (2, 3):
                if not 1 < k < n - 1 or min(k, n - k) < 2:
                    continue
                for l in (4, 5, 6):
                    m = 2
                    base = Subspace.from_rows(
                        field, n, linalg.identity(n)[:k - m])
                    found = search_m_independent(field, n - (k - m), min(4, l), l,
                                                 budget=2_000_000)
                    if found.status != "found":
                        continue
                    from grassmann_lab.subspaces import lift_from_quotient
                    gens = [lift_from_quotient(base, (row,)) for row in found.points]
                    inst = build_construction(base, gens, k, False)
                    cls = classify(inst)
                    report = is_rigid(cls)
                    points = cls.point_set(False)
                    expect = is_independent(field, points) or simplex_rank(field, points)[0]
                    if l == 2 * m:
                        expect = expect and n == 2 * k
                    assert report.is_rigid is expect, (q, n, k, l)
                    assert all(o.diagnostics for _, o in report.per_automorphism
                               if isinstance(o, NotExtendable))
                    checked += 1
    assert checked >= 15


def test_is_rigid_rebuilds_each_classification_once(monkeypatch):
    # every automorphism witness is checked on the rebuilt labeled map; it
    # is built once per classification, by the rebuild that certifies it,
    # and never again, not once per generator
    from grassmann_lab import embeddings
    simplex = lines(F2, canonical_simplex(4, 4))
    images = {
        "J(5,2) simplex faces in G(4,2,2)":
            build_construction(Subspace.zero(F2, 4), simplex, 2, False),
        "J(6,3) frame apartment in G(6,3,2)":
            build_construction(Subspace.zero(F2, 6), basis_lines(F2, 6), 3, False),
    }
    real = embeddings._subset_sums
    calls = []

    def counting(generators, m, join):
        calls.append(m)
        return real(generators, m, join)

    monkeypatch.setattr(embeddings, "_subset_sums", counting)
    for name, inst in images.items():
        calls.clear()
        cls = classify(inst)
        assert len(calls) == 1, name
        calls.clear()
        report = is_rigid(cls)
        assert report.is_rigid is True, name
        assert len(report.per_automorphism) > 1, name
        assert calls == [], name


# brute-force reference ------------------------------------------------------
#
# Every semilinear map x -> sigma(x) A of a small space, taken as the
# permutation it induces on the points, built from the field tables alone:
# no solver, rank or search code is reached.


@functools.cache
def semilinear_group(p, e, d):
    """(points, index, group): the points of PG(d - 1, q) as vectors with
    leading 1, the point index of every nonzero vector, and the set of
    permutations of the point indices induced by GL(d, q) x Aut(GF(q))."""
    F = GF.get(p, e)
    vectors = list(itertools.product(range(F.q), repeat=d))  # code 0 is the zero vector
    code = {v: c for c, v in enumerate(vectors)}
    add = [[code[tuple(F.add(x, y) for x, y in zip(u, v))] for v in vectors] for u in vectors]
    scale = [[code[tuple(F.mul(a, x) for x in v)] for v in vectors] for a in range(F.q)]
    points = [v for v in vectors if any(v) and next(x for x in v if x) == 1]
    point_of = {scale[a][code[v]]: i for i, v in enumerate(points) for a in range(1, F.q)}
    twists = [[point_of[code[tuple(F.frobenius(x, t) for x in v)]] for v in points]
              for t in range(e)]

    def invertible(rows, span):  # row codes, each outside the span of the earlier ones
        if len(rows) == d:
            yield rows
            return
        for r in range(1, len(vectors)):
            if r not in span:
                yield from invertible(rows + (r,), {add[s][scale[a][r]]
                                                    for s in span for a in range(F.q)})

    group = set()
    for rows in invertible((), {0}):
        linear = []
        for v in points:
            acc = 0
            for x, r in zip(v, rows):
                acc = add[acc][scale[x][r]]
            linear.append(point_of[acc])
        group.update(tuple(linear[i] for i in twist) for twist in twists)
    index = {vectors[c]: i for c, i in point_of.items()}
    return points, index, group


def _point_sets(index, pairs):
    return [(frozenset(index[v] for v in vectors(src) if any(v)),
             frozenset(index[v] for v in vectors(dst) if any(v))) for src, dst in pairs]


def _realized(group, point_sets):
    return any(all(frozenset(g[i] for i in src) == dst for src, dst in point_sets)
               for g in group)


def _check_against_brute_force(F, d, group, index, pairs):
    smap, diagnostics, resolved = solve_semilinear_mapping(F, d, pairs)
    assert resolved and diagnostics
    assert (smap is not None) == _realized(group, _point_sets(index, pairs)), pairs
    if smap is not None:
        assert all(smap.apply(src) == dst for src, dst in pairs)
    return smap


def test_group_orders_match_the_formula():
    # |PGammaL(d, q)| = |GL(d, q)| * e / (q - 1)
    for (p, e, d), order in {(2, 1, 3): 168, (3, 1, 3): 5616, (2, 1, 4): 20160,
                             (2, 2, 2): 120}.items():
        assert len(semilinear_group(p, e, d)[2]) == order


@pytest.mark.parametrize("p, e, d", [(2, 1, 3), (3, 1, 3), (2, 1, 4), (2, 2, 2)])
def test_solver_agrees_with_brute_force_on_point_families(p, e, d):
    F = GF.get(p, e)
    points, index, group = semilinear_group(p, e, d)
    lines = [Subspace.line(F, v) for v in points]
    rng = random.Random(f"points:{p}:{e}:{d}")
    answers, twists = set(), set()
    for _ in range(40):
        family = rng.sample(range(len(points)), rng.randint(1, min(len(points), d + 3)))
        if rng.random() < 0.5:
            perm = rng.sample(range(len(family)), len(family))
            targets = [family[j] for j in perm]
        else:
            targets = rng.sample(range(len(points)), len(family))
        pairs = [(lines[i], lines[j]) for i, j in zip(family, targets)]
        smap = _check_against_brute_force(F, d, group, index, pairs)
        answers.add(smap is not None)
        twists.add(smap.sigma if smap is not None else None)
    # PGammaL(2, 4) is the symmetric group on the five points of PG(1, 4),
    # and only the odd permutations need the Frobenius twist
    assert answers == ({True} if (p, e, d) == (2, 2, 2) else {True, False})
    if e == 2:
        assert {0, 1} <= twists


def test_solver_agrees_with_brute_force_over_distinct_meets():
    # GF(2), d = 4: planes M + p_j onto planes M' + p'_j, M != M' lines
    F = GF.get(2)
    points, index, group = semilinear_group(2, 1, 4)
    lines = [Subspace.line(F, v) for v in points]
    rng = random.Random("meets")
    answers = set()
    for _ in range(40):
        meet, meet_image = rng.sample(range(len(points)), 2)
        family = rng.sample([i for i in range(len(points)) if i != meet], rng.randint(2, 6))
        sources = [sum_subspaces(lines[meet], lines[i]) for i in family]
        if rng.random() < 0.5:
            # the planes over M moved onto M' by a map, then permuted
            g = rng.choice(sorted(g for g in group if g[meet] == meet_image))
            moved = [sum_subspaces(lines[meet_image], lines[g[i]]) for i in family]
            targets = [moved[j] for j in rng.sample(range(len(family)), len(family))]
        else:
            others = [i for i in range(len(points)) if i != meet_image]
            targets = [sum_subspaces(lines[meet_image], lines[i])
                       for i in rng.sample(others, len(family))]
        smap = _check_against_brute_force(F, 4, group, index, list(zip(sources, targets)))
        answers.add(smap is not None)
    assert answers == {True, False}


# build requests whose classification and rigidity report must not depend on
# the memo: (build argv, case, is_rigid)
MEMO_CASES = {
    "gf2-star-simplex": (["sum", "--p", 2, "--n", 5, "--k", 2, "--l", 6], "star", True),
    "gf3-star-not-extendable": (["sum", "--p", 3, "--n", 5, "--k", 2, "--l", 6], "star", False),
    "gf4-top": (["dual", "--p", 2, "--e", 2, "--n", 6, "--k", 3, "--m", 2, "--l", 6],
                "top", True),
    "gf9-top": (["dual", "--p", 3, "--e", 2, "--n", 5, "--k", 3, "--l", 5], "top", True),
    "gf3-duality-at-n-2k": (["apartment", "--p", 3, "--n", 4, "--k", 2],
                            "parabolic-apartment", True),
    "gf2-complement-needs-n-2k": (["sum", "--p", 2, "--n", 5, "--k", 2, "--m", 2, "--l", 4],
                                  "parabolic-apartment", False),
}


@pytest.mark.parametrize("name", sorted(MEMO_CASES))
def test_classification_and_report_are_the_same_inside_a_memo(name, tmp_path):
    build, case, rigid = MEMO_CASES[name]
    path = tmp_path / "emb.json"
    assert main(["build", *map(str, build), "--output", str(path)]) == 0
    inst = embedding_from_json(json.loads(path.read_text()))

    def documents(loaded):
        cls = classify(loaded)
        # the stored classification reloaded, as `rigidity --input` reads it
        report = is_rigid(classification_from_json(classification_to_json(cls)))
        return json.dumps([classification_to_json(cls), rigidity_report_to_json(report, True)],
                          sort_keys=True)

    plain = documents(inst)
    with memoized():
        assert documents(inst) == plain
    cls_doc, report_doc = json.loads(plain)
    assert cls_doc["case"] == case
    assert report_doc["is_rigid"] is rigid
    if not rigid:
        # refusals carry their solver records, and those are compared too
        refusals = [entry for entry in report_doc["per_automorphism"] if "witness" not in entry]
        assert refusals and all(entry.get("diagnostics") for entry in refusals)
