import itertools

import pytest

from grassmann_lab import linalg
from grassmann_lab.embeddings import build_sum_construction, classify
from grassmann_lab.errors import ValidationError
from grassmann_lab.fields import GF
from grassmann_lab.independence import (Ambient, canonical_simplex, point_set,
                                        search_m_independent)
from grassmann_lab.johnson import JohnsonAut
from grassmann_lab.rigidity import (ExtensionWitness, NotExtendable,
                                    extend_automorphism, extend_from_quotient,
                                    induced_by_semilinear, is_rigid,
                                    solve_semilinear_mapping)
from grassmann_lab.subspaces import (SemilinearMap, Subspace, annihilator,
                                     contragredient)

F2 = GF.get(2)
F3 = GF.get(3)
F4 = GF.get(2, 2)


def unit(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def basis_lines(field, n):
    return [Subspace.line(field, unit(i, n)) for i in range(n)]


def x6_points(field=F2):
    vecs = [unit(i, 6) for i in range(4)] + [(1, 1, 1, 1, 0, 0), unit(4, 6)]
    return point_set(field, vecs)


def test_simplex_admits_every_permutation():
    simplex = canonical_simplex(F2, 4, 3)
    for perm in itertools.permutations(range(4)):
        outcome = induced_by_semilinear(simplex, perm)
        assert isinstance(outcome, ExtensionWitness)
        for i, p in enumerate(simplex.points):
            assert outcome.map.apply(p) == simplex.points[perm[i]]


def test_basis_admits_every_permutation_with_monomial_witness():
    points = point_set(F3, [unit(i, 3) for i in range(3)])
    for perm in itertools.permutations(range(3)):
        outcome = induced_by_semilinear(points, perm)
        assert isinstance(outcome, ExtensionWitness)
        mat = outcome.map.matrix
        assert all(sum(1 for x in row if x) == 1 for row in mat)


def test_x6_transposition_not_extendable():
    ps = x6_points()
    outcome = induced_by_semilinear(ps, (0, 1, 2, 3, 5, 4))
    assert isinstance(outcome, NotExtendable)
    assert all(d.exhaustive for d in outcome.diagnostics)
    # independent cross-check: rebuild the constraint system directly and
    # enumerate its entire solution space; every member must be singular
    span = Subspace.from_rows(F2, 6, [p.rows[0] for p in ps.points])
    assert span.dim == 5
    from grassmann_lab.subspaces import coords_in
    reduced = [Subspace(F2, 5, coords_in(span, p)) for p in ps.points]
    perm = (0, 1, 2, 3, 5, 4)
    pairs = [(reduced[i], reduced[perm[i]]) for i in range(6)]
    from grassmann_lab.rigidity import _combine, _mapping_constraints
    constraints = _mapping_constraints(F2, 5, pairs, 0)
    basis = linalg.nullspace(F2, constraints, 25)
    assert basis  # solutions exist, but none invertible
    for coeffs in itertools.product((0, 1), repeat=len(basis)):
        if not any(coeffs):
            continue
        mat = _combine(F2, 5, basis, coeffs)
        assert not linalg.is_invertible(F2, mat)


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
    # F_3^6, so the duality realizing the complement is searched among maps
    # of that hyperplane: nullity 9, and all 3^9 - 1 candidates fit the cap
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
    assert [(d.nullity, d.exhaustive) for d in diagnostics] == [(9, True)]


def test_solver_refuses_pairs_of_unequal_dimension():
    pairs = [(Subspace.line(F2, unit(0, 3)), Subspace.from_rows(F2, 3, [unit(0, 3), unit(1, 3)]))]
    with pytest.raises(ValidationError):
        solve_semilinear_mapping(F2, 3, pairs)


def test_solver_misses_when_the_spans_differ_in_dimension():
    # three lines spanning a plane cannot go onto three lines spanning F_2^3
    sources = [Subspace.line(F2, v) for v in ((1, 0, 0), (0, 1, 0), (1, 1, 0))]
    targets = basis_lines(F2, 3)
    smap, diagnostics, resolved = solve_semilinear_mapping(F2, 3, list(zip(sources, targets)))
    assert smap is None and resolved and diagnostics == ()


def test_induced_by_semilinear_rejects_non_permutation():
    ps = x6_points()
    with pytest.raises(ValidationError):
        induced_by_semilinear(ps, (0, 0, 2, 3, 4, 5))


def test_dual_transport_both_directions():
    simplex = canonical_simplex(F2, 4, 4)
    perm = (1, 2, 3, 4, 0)
    outcome = induced_by_semilinear(simplex, perm)
    assert isinstance(outcome, ExtensionWitness)
    u = outcome.map
    # the contragredient realizes the same permutation on the annihilators
    for i, p in enumerate(simplex.points):
        assert contragredient(u).apply(annihilator(p)) == annihilator(
            simplex.points[perm[i]])
    # and solving on the annihilator side directly yields a witness whose
    # contragredient works on the points
    pairs = [(annihilator(simplex.points[i]), annihilator(simplex.points[perm[i]]))
             for i in range(5)]
    dual_map, _, resolved = solve_semilinear_mapping(F2, 4, pairs)
    assert resolved and dual_map is not None
    back = contragredient(dual_map)
    for i, p in enumerate(simplex.points):
        assert back.apply(p) == simplex.points[perm[i]]


def test_apartment_rigid_with_duality_for_complement():
    inst = build_sum_construction(Subspace.zero(F2, 4), basis_lines(F2, 4), 2)
    report = is_rigid(inst)
    assert report.is_rigid is True
    assert report.rigidity_case == "parabolic-apartment"
    assert report.unique_pgl_extension is False
    complement_outcomes = [o for aut, o in report.per_automorphism if aut.complement]
    assert len(complement_outcomes) == 1
    witness = complement_outcomes[0]
    assert isinstance(witness, ExtensionWitness) and witness.kind == "duality"
    assert witness.map.codomain_is_dual
    # the found duality sends each frame point into the dual frame point
    for i, line in enumerate(basis_lines(F2, 4)):
        image = witness.map.apply(line)
        assert image == annihilator(Subspace.from_rows(
            F2, 4, [unit(j, 4) for j in range(4) if j != i]))


def test_complement_not_extendable_when_n_differs_from_2k():
    base = Subspace.line(F2, unit(0, 5))
    gens = [Subspace.from_rows(F2, 5, (unit(0, 5), unit(i, 5))) for i in range(1, 5)]
    inst = build_sum_construction(base, gens, 3)  # J(4,2) image, n=5, k=3
    cls = classify(inst)
    assert cls.case == "parabolic-apartment"
    comp = JohnsonAut(tuple(range(4)), complement=True)
    outcome = extend_automorphism(cls, comp)
    assert isinstance(outcome, NotExtendable)
    assert "n = 2k" in outcome.reason
    report = is_rigid(cls)
    assert report.is_rigid is False  # only the complement fails
    perm_outcomes = [o for aut, o in report.per_automorphism if not aut.complement]
    assert all(isinstance(o, ExtensionWitness) for o in perm_outcomes)


def test_apartment_rigid_when_l_not_2m():
    inst = build_sum_construction(Subspace.zero(F2, 5), basis_lines(F2, 5), 2)
    report = is_rigid(inst)
    assert report.is_rigid is True
    assert report.rigidity_case == "parabolic-apartment-star"
    assert all(isinstance(o, ExtensionWitness) and o.kind == "semilinear"
               for _, o in report.per_automorphism)


def test_simplex_faces_rigid_with_unique_extension():
    pts = canonical_simplex(F2, 4, 4).points
    gens = [Subspace(F2, 4, p.rows) for p in pts]
    inst = build_sum_construction(Subspace.zero(F2, 4), gens, 2)
    report = is_rigid(inst)
    assert report.is_rigid is True
    assert report.rigidity_case == "simplex-faces-star"
    assert report.unique_pgl_extension is True
    # computational uniqueness: the identity permutation admits a solution
    # space of projective dimension zero
    pairs = [(g, g) for g in gens]
    constraints_basis = linalg.nullspace(
        F2, __import__("grassmann_lab.rigidity", fromlist=["x"])._mapping_constraints(
            F2, 4, pairs, 0), 16)
    assert len(constraints_basis) == 1


def test_dual_simplex_faces_rigid():
    pts = canonical_simplex(F2, 4, 4).points
    hyperplanes = [annihilator(Subspace(F2, 4, p.rows)) for p in pts]
    from grassmann_lab.embeddings import build_dual_construction
    inst = build_dual_construction(Subspace.full(F2, 4), hyperplanes, 2)
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
    gens = [Subspace(F2, 6, p.rows) for p in x6_points().points]
    inst = build_sum_construction(Subspace.zero(F2, 6), gens, 2)
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
    found = search_m_independent(Ambient("primal", F2, 6), 4, 8, budget=500_000)
    assert found.found
    gens = [Subspace(F2, 6, p.rows) for p in found.points.points]
    inst = build_sum_construction(Subspace.zero(F2, 6), gens, 2)
    assert inst.l == 8 and inst.l > max(2, 4) + 2 + 1
    report = is_rigid(inst)
    assert report.is_rigid is False
    assert report.rigidity_case == "none"


def test_quotient_witnesses_respect_the_base_space():
    base = Subspace.line(F3, unit(0, 5))
    gens = [Subspace.from_rows(F3, 5, (unit(0, 5), unit(i, 5))) for i in range(1, 5)]
    inst = build_sum_construction(base, gens, 3)
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
    points = point_set(F4, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, omega, 0)])
    outcome = induced_by_semilinear(points, (0, 1, 2, 3, 4))
    assert isinstance(outcome, ExtensionWitness)
    swap = induced_by_semilinear(points, (1, 0, 2, 3, 4))
    if isinstance(swap, ExtensionWitness):
        for i, p in enumerate(points.points):
            target = points.points[(1, 0, 2, 3, 4)[i]]
            assert swap.map.apply(p) == target


def test_unknown_only_when_search_space_too_large(monkeypatch):
    import grassmann_lab.rigidity as rig
    simplex = canonical_simplex(F3, 3, 3)
    # force the sampled path by shrinking the exhaustive cap
    monkeypatch.setattr(rig, "EXHAUSTIVE_CAP", 0)
    smap, diags, resolved = rig.solve_semilinear_mapping(
        F3, 3, [(p, p) for p in simplex.points])
    assert smap is not None  # the fixed-seed draws still find a witness
    assert resolved
    # an infeasible system under the sampled regime stays unresolved
    pts = x6_points()
    span_pairs = [(pts.points[i], pts.points[(0, 1, 2, 3, 5, 4)[i]]) for i in range(6)]
    smap2, diags2, resolved2 = rig.solve_semilinear_mapping(F2, 6, span_pairs)
    assert smap2 is None and not resolved2


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
                    found = search_m_independent(
                        Ambient("primal", field, n - (k - m)), min(4, l), l,
                        budget=2_000_000)
                    if not found.found:
                        continue
                    from grassmann_lab.subspaces import lift_from_quotient
                    gens = [lift_from_quotient(base, p.rows)
                            for p in found.points]
                    inst = build_sum_construction(base, gens, k)
                    cls = classify(inst)
                    report = is_rigid(cls)
                    points = cls.star_point_set()
                    expect = is_independent(points) or simplex_rank(points)[0]
                    if l == 2 * m:
                        expect = expect and n == 2 * k
                    assert report.is_rigid is expect, (q, n, k, l)
                    checked += 1
    assert checked >= 15


def test_extend_from_quotient_shape():
    base = Subspace.line(F2, unit(0, 4))
    inner = SemilinearMap(F2, linalg.identity(3), 0)
    full = extend_from_quotient(base, inner)
    assert full.apply(base) == base
    assert full.dim == 4


def test_is_rigid_rebuilds_each_classification_once(monkeypatch):
    # every automorphism witness is checked on the rebuilt labeled map; it
    # is built once per classification, not once per generator
    from grassmann_lab import embeddings
    simplex = [Subspace(F2, 4, p.rows) for p in canonical_simplex(F2, 4, 4).points]
    images = {
        "J(5,2) simplex faces in G(4,2,2)":
            build_sum_construction(Subspace.zero(F2, 4), simplex, 2),
        "J(6,3) frame apartment in G(6,3,2)":
            build_sum_construction(Subspace.zero(F2, 6), basis_lines(F2, 6), 3),
    }
    real = embeddings._subset_sums
    calls = []

    def counting(generators, m):
        calls.append(m)
        return real(generators, m)

    monkeypatch.setattr(embeddings, "_subset_sums", counting)
    for name, inst in images.items():
        cls = classify(inst)
        calls.clear()
        report = is_rigid(cls)
        assert report.is_rigid is True, name
        assert len(report.per_automorphism) > 1, name
        assert len(calls) == 1, name
