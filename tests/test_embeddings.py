import itertools
import math
import random
import re
from collections import Counter

import pytest

from grassmann_lab import embeddings, grassmannian, jsonio, linalg
from grassmann_lab.embeddings import (EmbeddingInstance, build_construction, classify,
                                      rebuild, verify_assignment)
from grassmann_lab.errors import (ClassificationError, GrassmannLabError, NotIsometricError,
                                  ValidationError)
from grassmann_lab.fields import GF
from grassmann_lab.independence import canonical_simplex
from grassmann_lab.johnson import MAX_GROUND_SET, vertex_from_indices
from grassmann_lab.oracle import SearchConfig, enumerate_embeddings
from grassmann_lab.rigidity import is_rigid
from grassmann_lab.subspaces import (Subspace, annihilator, from_coords_in, intersect_many,
                                     sum_many)

from helpers import apartment_from_frame, clique_independence, star, top

F2 = GF.get(2)
F3 = GF.get(3)


def unit(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def basis_lines(field, n):
    return [Subspace.line(field, unit(i, n)) for i in range(n)]


def simplex_lines(field, n):
    return [Subspace.line(field, row) for row in canonical_simplex(n, n)]


def apartment_instance(field, n, k):
    return build_construction(Subspace.zero(field, n), basis_lines(field, n), k, False)


def test_sum_construction_apartment():
    inst = apartment_instance(F2, 4, 2)
    assert inst.l == 4 and inst.m == 2 and inst.k == 2
    assert inst.image == apartment_from_frame(basis_lines(F2, 4), 2)
    assert verify_assignment(inst.m, inst.assignment) is None


def test_sum_construction_simplex_faces():
    gens = simplex_lines(F2, 4)
    inst = build_construction(Subspace.zero(F2, 4), gens, 2, False)
    assert inst.l == 5 and inst.m == 2
    assert len(inst.image) == 10
    assert verify_assignment(inst.m, inst.assignment) is None  # all 45 pairs


def test_sum_construction_dimension_identity():
    # dim of the intersection of two generator sums equals the overlap size
    gens = simplex_lines(F2, 4)
    for a in itertools.combinations(range(5), 2):
        for b in itertools.combinations(range(5), 2):
            sa = sum_many(F2, 4, (gens[i] for i in a))
            sb = sum_many(F2, 4, (gens[i] for i in b))
            meet = intersect_many(F2, 4, (sa, sb))
            assert meet.dim == len(set(a) & set(b))


def test_sum_construction_over_nonzero_base():
    base = Subspace.line(F2, unit(0, 5))
    gens = [Subspace.from_rows(F2, 5, (unit(0, 5), unit(i, 5))) for i in range(1, 5)]
    inst = build_construction(base, gens, 3, False)
    assert inst.l == 4 and inst.m == 2 and inst.k == 3
    assert all(s.contains(base) for s in inst.image)
    cls = classify(inst)
    assert cls.case == "parabolic-apartment"
    assert cls.m_space == base and cls.n_space.dim == 5


def test_sum_construction_rejects_dependent_generators():
    bad = [Subspace.line(F2, v) for v in
           (unit(0, 4), unit(1, 4), (1, 1, 0, 0), unit(2, 4))]
    with pytest.raises(ValidationError) as err:
        build_construction(Subspace.zero(F2, 4), bad, 2, False)
    assert "independent" in str(err.value)


def test_sum_construction_dimension_arithmetic_guard():
    with pytest.raises(ValidationError):
        build_construction(Subspace.zero(F2, 4), basis_lines(F2, 4), 3, False)  # m+k > n
    with pytest.raises(ValidationError):
        build_construction(Subspace.line(F2, unit(0, 4)),
                           [Subspace.from_rows(F2, 4, (unit(0, 4), unit(i, 4)))
                            for i in range(1, 4)], 2, False)  # m = 1


def test_dual_construction_from_dual_basis_is_apartment():
    hyperplanes = [annihilator(p) for p in basis_lines(F2, 4)]
    inst = build_construction(Subspace.full(F2, 4), hyperplanes, 2, True)
    assert inst.image == apartment_from_frame(basis_lines(F2, 4), 2)


def test_dual_construction_simplex():
    hyperplanes = [annihilator(s) for s in simplex_lines(F2, 4)]
    inst = build_construction(Subspace.full(F2, 4), hyperplanes, 2, True)
    assert inst.l == 5 and inst.m == 2
    assert verify_assignment(inst.m, inst.assignment) is None
    # transport equals direct intersections, element by element
    for combo in itertools.combinations(range(5), 2):
        direct = intersect_many(F2, 4, (hyperplanes[i] for i in combo))
        assert inst.assignment[vertex_from_indices(combo)] == direct


def test_dual_construction_guards():
    hyperplanes = [annihilator(p) for p in basis_lines(F2, 4)]
    with pytest.raises(ValidationError):
        build_construction(Subspace.full(F2, 4), hyperplanes, 1, True)  # m > k
    not_inside = Subspace.from_rows(F2, 4, (unit(0, 4), unit(1, 4)))
    cover = Subspace.from_rows(F2, 4, (unit(0, 4), unit(1, 4), unit(2, 4)))
    with pytest.raises(ValidationError):
        build_construction(cover, [not_inside], 1, True)


def _over_e0(rows):
    """Spaces of F_2^5 one dimension over the line of e0: e0 and each row
    of F_2^4 set after it."""
    return [Subspace.from_rows(F2, 5, (unit(0, 5), (0,) + tuple(r))) for r in rows]


@pytest.mark.parametrize("top", [False, True], ids=["sum", "dual"])
def test_one_construction_refuses_and_builds_alike_on_both_sides(top):
    # each request is a sum-side one over the line of e0, or on the top side
    # its annihilated request: hyperplanes of a 4-space, and k becomes 5 - k
    base = Subspace.line(F2, unit(0, 5))

    def request(gens, k):
        if top:
            return annihilator(base), [annihilator(g) for g in gens], 5 - k
        return base, gens, k

    simplex = _over_e0(canonical_simplex(4, 4))
    eye = linalg.identity(4)
    refusals = [
        (request(simplex, 2), "needs 1 < m <= min(k, n-k) = 2, got m=1"),
        (request(simplex, 4), "needs 1 < m <= min(k, n-k) = 1, got m=3"),
        (request(simplex[:2], 3), "need more than m=2 generators, got 2"),
        # a 3-space over the base (on the top side a 2-space in the cover)
        (request([Subspace.from_rows(F2, 5, [unit(i, 5) for i in range(3)])] + simplex[1:],
                 3),
         "generators must be"),
        # a 2-space that misses the base (a 3-space outside the cover)
        (request([Subspace.from_rows(F2, 5, (unit(1, 5), unit(2, 5)))] + simplex[1:], 3),
         "generators must be"),
        (request(_over_e0(eye[:3] + ((1, 1, 0, 0), eye[3])), 3),
         "not 4-independent over the base; dependent subset at indices (0, 1, 2, 3)"),
    ]
    for args, message in refusals:
        with pytest.raises(ValidationError, match=re.escape(message)):
            build_construction(*args, top)
    inst = build_construction(*request(simplex, 3), top)
    sums = {vertex_from_indices(c): sum_many(F2, 5, [simplex[i] for i in c])
            for c in itertools.combinations(range(5), 2)}
    assert (inst.l, inst.m, inst.k) == (5, 2, 2 if top else 3)
    assert inst.assignment == ({v: annihilator(s) for v, s in sums.items()} if top else sums)


def test_verify_isometric_counterexamples():
    inst = apartment_instance(F2, 4, 2)
    vs = list(inst.assignment)
    # swapping the images of two adjacent vertices breaks isometry
    a = vertex_from_indices((0, 1))
    b = vertex_from_indices((0, 2))
    swapped = dict(inst.assignment)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    bad = EmbeddingInstance(4, 2, swapped)
    defect = verify_assignment(bad.m, bad.assignment)
    assert defect is not None
    assert {defect.vertex_a, defect.vertex_b} <= set(vs)
    assert defect.expected != defect.actual
    # a constant map fails at the first adjacent pair (distance 0 vs 1)
    constant = {v: inst.assignment[a] for v in vs}
    defect2 = verify_assignment(2, constant)
    assert defect2 is not None and defect2.actual == 0 and defect2.expected >= 1
    # and is rejected outright by the instance invariant (injectivity)
    with pytest.raises(ValidationError):
        EmbeddingInstance(4, 2, constant)
    # swapping an antipodal image pair of the octahedron is a graph
    # automorphism, hence still isometric
    c = vertex_from_indices((2, 3))
    anti = dict(inst.assignment)
    anti[a], anti[c] = anti[c], anti[a]
    assert verify_assignment(2, anti) is None


def test_clique_independence_on_a_line():
    # a line lies in both a star and a top: two of its members are
    # independent points over their meet and hyperplanes of their join,
    # three are neither
    m = Subspace.line(F2, unit(0, 4))
    n_space = Subspace.from_rows(F2, 4, (unit(0, 4), unit(1, 4), unit(2, 4)))
    line = sorted(star(m) & top(n_space), key=lambda s: s.rows)
    assert len(line) == 3
    assert not clique_independence(line)
    assert clique_independence(line[:2])


def test_classify_case_and_rebuild_labels():
    # Johnson stars land in stars (case A) for the apartment and the J(5,2)
    # simplex image, in tops (case B) for the annihilated apartment and the
    # annihilated simplex image.  The rebuild keeps the input labels in
    # both cases, also at l = 2m, where both read "parabolic-apartment".
    apartment = apartment_instance(F2, 4, 2)
    cls = classify(apartment)
    assert cls.case == "parabolic-apartment"
    assert rebuild(cls) == apartment.assignment
    frame_hyperplanes = [annihilator(p) for p in basis_lines(F2, 4)]
    dual = build_construction(Subspace.full(F2, 4), frame_hyperplanes, 2, True)
    assert dual.assignment == {v: annihilator(s) for v, s in apartment.assignment.items()}
    dual_cls = classify(dual)
    assert dual_cls.case == "parabolic-apartment"
    assert rebuild(dual_cls) == dual.assignment
    gens = simplex_lines(F2, 4)
    simplex = build_construction(Subspace.zero(F2, 4), gens, 2, False)
    simplex_top = build_construction(Subspace.full(F2, 4),
                                     [annihilator(g) for g in gens], 2, True)
    for inst, case in ((simplex, "star"), (simplex_top, "top")):
        cls = classify(inst)
        assert cls.case == case
        assert rebuild(cls) == inst.assignment


def test_assemble_refuses_generators_that_do_not_rebuild_the_image():
    # J(4, 2) in G(4, 2): star points are lines over the zero space that
    # span F^4, and their sums must be the image
    image = apartment_instance(F2, 4, 2).image
    cases = [
        # lines over the zero space, where k = 3 asks for a base line
        (basis_lines(F2, 4), 3, "0-dimensional base, expected 1"),
        # the simplex of F^3 spans 3 dimensions, not 4
        ([Subspace.line(F2, row + (0,)) for row in
          ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))], 2, "span dimension 3"),
        # another frame rebuilds another apartment
        (basis_lines(F2, 4)[:3] + [Subspace.line(F2, (1, 1, 1, 1))], 2,
         "rebuilt image differs"),
    ]
    for generators, k, message in cases:
        with pytest.raises(ClassificationError, match=message):
            embeddings._assemble(image, tuple(generators), 4, 2, k, False)


def test_classify_apartment_full():
    cls = classify(apartment_instance(F2, 4, 2))
    assert cls.case == "parabolic-apartment"
    assert cls.is_full_apartment
    assert cls.m_space.dim == 0 and cls.n_space.dim == 4
    assert frozenset(rebuild(cls).values()) == apartment_from_frame(basis_lines(F2, 4), 2)


def test_classify_star_type_round_trip():
    gens = simplex_lines(F2, 4)
    inst = build_construction(Subspace.zero(F2, 4), gens, 2, False)
    cls = classify(inst)
    assert cls.case == "star" and not cls.is_full_apartment
    assert frozenset(cls.star_points) == frozenset(gens)
    # labeled recovery keeps ground order, so the rebuild keeps the labels
    assert list(cls.star_points) == gens
    assert rebuild(cls) == inst.assignment


# the fields of the law tests: two prime fields, GF(4) and GF(16) in
# characteristic 2, and GF(9) in odd characteristic
LAW_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4)]


def _random_dual_request(field, rng, classifiable=False):
    """A seeded (n_space, hyperplanes, k) for build_construction's top side: the
    coordinate simplex of a random (k+m)-space N of F^n, moved by a random
    invertible matrix, l of its points taken, each read as the hyperplane
    of N on which it vanishes; classify takes l >= 4 and 1 < m < l - 1
    when classifiable.  Any k+m of the simplex points are independent, so
    their annihilators are 2m-independent over that of N."""
    n, k, m = rng.choice([(4, 2, 2), (5, 2, 2), (5, 3, 2), (6, 3, 3)])
    if field.q > 4 and n == 6:
        n, k, m = 5, 3, 2
    l = rng.randint(max(4, m + 2) if classifiable else m + 1, k + m + 1)

    def invertible(d):
        while True:
            g = [[rng.randrange(field.q) for _ in range(d)] for _ in range(d)]
            if linalg.rank(field, g) == d:
                return g

    cover = Subspace.from_rows(field, n, invertible(n)[:k + m])
    move = invertible(k + m)
    rows = [linalg.vecmat(field, row, move) for row in canonical_simplex(k + m, k + m)]
    hyperplanes = [from_coords_in(cover, linalg.nullspace(field, (row,), k + m))
                   for row in rng.sample(rows, l)]
    return cover, hyperplanes, k


def test_dual_construction_is_the_annihilated_sum_construction():
    # the map the meets build is the one the annihilator round trip built
    rng = random.Random(14)
    for p, e in LAW_FIELDS:
        field = GF.get(p, e)
        for _ in range(4):
            cover, hyperplanes, k = _random_dual_request(field, rng)
            n = cover.ambient_dim
            dual = build_construction(cover, hyperplanes, k, True)
            primal = build_construction(annihilator(cover),
                                        [annihilator(h) for h in hyperplanes], n - k, False)
            assert dual.assignment == {v: annihilator(s)
                                       for v, s in primal.assignment.items()}
            assert list(dual.assignment) == list(primal.assignment)


def _assert_annihilated(cls, dual_cls, labeled: bool):
    """dual_cls classifies the annihilated image of cls: the sides swap and
    every recovered space is annihilated; a labeled pair keeps the ground
    order of its generators, and annihilation commutes with rebuild label
    by label."""
    ann = annihilator
    cases = {"star": "top", "top": "star", "parabolic-apartment": "parabolic-apartment"}
    assert dual_cls.case == cases[cls.case]
    assert (dual_cls.m_space, dual_cls.n_space) == (ann(cls.n_space), ann(cls.m_space))
    assert dual_cls.image == frozenset(ann(s) for s in cls.image)
    if not labeled:
        assert frozenset(dual_cls.top_points) == frozenset(ann(t) for t in cls.star_points)
        return
    assert dual_cls.top_points == tuple(ann(t) for t in cls.star_points)
    assert rebuild(dual_cls) == {v: ann(s) for v, s in rebuild(cls).items()}


def test_classify_dual_commutes_with_annihilator():
    gens = simplex_lines(F2, 4)
    inst = build_construction(Subspace.zero(F2, 4), gens, 2, False)
    cls = classify(inst)
    dual_image = frozenset(annihilator(s) for s in inst.image)
    dual_cls = classify(dual_image)
    assert dual_cls.case == "top"
    assert dual_cls.n_space == annihilator(cls.m_space)
    assert frozenset(dual_cls.top_points) == frozenset(annihilator(t)
                                                       for t in cls.star_points)
    assert frozenset(rebuild(dual_cls).values()) == dual_image
    # seeded star-type images over every law field and their annihilated
    # top-type images, labeled and bare
    rng = random.Random(9)
    for p, e in LAW_FIELDS:
        field = GF.get(p, e)
        for _ in range(3):
            top = build_construction(*_random_dual_request(field, rng, True), True)
            star = EmbeddingInstance(top.l, top.m, {v: annihilator(s)
                                                    for v, s in top.assignment.items()})
            _assert_annihilated(classify(star), classify(top), labeled=True)
            bare_star, bare_top = classify(star.image), classify(top.image)
            assert frozenset(rebuild(bare_top).values()) == top.image
            if top.l != 2 * top.m:
                _assert_annihilated(bare_star, bare_top, labeled=False)


def _count_annihilators(monkeypatch):
    from grassmann_lab import subspaces
    real = subspaces.annihilator
    calls = []

    def counting(s):
        calls.append(1)
        return real(s)

    monkeypatch.setattr(subspaces, "annihilator", counting)
    monkeypatch.setattr(embeddings, "annihilator", counting)
    return calls


def test_top_side_is_built_and_classified_without_annihilating_the_image(monkeypatch):
    # J(5,2) in G(4,2,2): the dual construction annihilates n_space and the
    # five generators for its certificate (it annihilated all 10 images as
    # well when it transported the sum construction), and classifying the
    # top-type image, labeled or bare, annihilates nothing (32 each when
    # the image was carried to the star side and back)
    hyperplanes = [annihilator(g) for g in simplex_lines(F2, 4)]
    calls = _count_annihilators(monkeypatch)
    top = build_construction(Subspace.full(F2, 4), hyperplanes, 2, True)
    counts = [len(calls)]
    for subject in (top, top.image):
        calls.clear()
        assert classify(subject).case == "top"
        counts.append(len(calls))
    assert counts == [6, 0, 0]


def test_classify_bare_set_inference():
    gens = simplex_lines(F2, 4)
    inst = build_construction(Subspace.zero(F2, 4), gens, 2, False)
    cls = classify(inst.image)
    assert (cls.l, cls.m) == (5, 2)
    assert cls.case == "star"
    assert frozenset(rebuild(cls).values()) == inst.image


def test_vertex_count_and_valency_name_one_johnson_graph():
    # the bare classifier reads (l, m) off |image| and the valency m(l - m)
    seen = {}
    for l in range(4, MAX_GROUND_SET + 1):
        for m in range(2, l // 2 + 1):
            key = (math.comb(l, m), m * (l - m))
            assert key not in seen, (seen.get(key), (l, m))
            seen[key] = (l, m)
            assert embeddings._johnson_parameters(*key) == (l, m)


def _perturbed_images(seed=7, per_graph=150):
    """Seeded inputs near oracle images of J(4,2) and J(5,2) in G(4,2,2):
    one member swapped for a plane outside the image, one member dropped,
    a random set of planes of the same size, or the image moved by a
    random invertible matrix (still a Johnson image)."""
    rng = random.Random(seed)
    for l in (4, 5):
        result = enumerate_embeddings(SearchConfig(l=l, m=2, n=4, k=2, p=2))
        spec, images = result.spec, sorted(result.images)
        for t in range(per_graph):
            image = [spec.by_id(i) for i in images[rng.randrange(len(images))]]
            kind = ("swap", "drop", "random", "move")[t % 4]
            if kind == "swap":
                others = [s for s in spec.subspaces if s not in image]
                image[rng.randrange(len(image))] = rng.choice(others)
            elif kind == "drop":
                del image[rng.randrange(len(image))]
            elif kind == "random":
                image = rng.sample(spec.subspaces, len(image))
            else:
                while True:
                    g = [[rng.randrange(2) for _ in range(4)] for _ in range(4)]
                    if linalg.rank(F2, g) == 4:
                        break
                image = [Subspace.from_rows(F2, 4, linalg.matmul(F2, s.rows, g))
                         for s in image]
            yield f"J({l},2) {kind}", frozenset(image)


def _outcome(call, image) -> str:
    """"ok" for a classification, str(value) for a verdict, or the class
    of the error raised."""
    try:
        value = call(image)
    except GrassmannLabError as exc:
        return type(exc).__name__
    return "ok" if isinstance(value, embeddings.Classification) else str(value)


PERTURBED_OUTCOMES = {
    ("J(4,2) swap", "ClassificationError", "False"): 20,
    ("J(4,2) swap", "ClassificationError", "True"): 18,
    ("J(4,2) drop", "ClassificationError", "True"): 38,
    ("J(4,2) random", "ClassificationError", "False"): 13,
    ("J(4,2) random", "ClassificationError", "True"): 24,
    ("J(4,2) move", "ok", "True"): 37,
    ("J(5,2) swap", "ClassificationError", "False"): 38,
    ("J(5,2) drop", "ClassificationError", "False"): 38,
    ("J(5,2) random", "ClassificationError", "False"): 36,
    ("J(5,2) random", "ClassificationError", "True"): 1,
    ("J(5,2) move", "ok", "False"): 37,
}


def test_bare_classify_on_perturbed_oracle_images():
    # only GrassmannLabError subclasses escape; the pins are what the
    # classifier that listed and typed maximal cliques (Bron-Kerbosch) gave
    # on the same inputs, where it agreed input by input
    counts = Counter((name, _outcome(classify, image), _outcome(clique_independence, image))
                     for name, image in _perturbed_images())
    assert counts == PERTURBED_OUTCOMES


def test_classify_normalizes_large_m():
    # J(5,3) relabels through complementation to J(5,2)
    gens = simplex_lines(F2, 4)
    inst = build_construction(Subspace.zero(F2, 4), gens, 2, False)
    flipped = {}
    full = (1 << 5) - 1
    for v, s in inst.assignment.items():
        flipped[full ^ v] = s
    big_m = EmbeddingInstance(5, 3, flipped)
    assert verify_assignment(big_m.m, big_m.assignment) is None
    cls = classify(big_m)
    assert cls.m == 2 and cls.l == 5
    assert frozenset(rebuild(cls).values()) == inst.image


def test_classify_rejects_non_isometric():
    inst = apartment_instance(F2, 4, 2)
    broken = dict(inst.assignment)
    a = vertex_from_indices((0, 1))
    b = vertex_from_indices((0, 2))
    broken[a], broken[b] = broken[b], broken[a]
    with pytest.raises(NotIsometricError) as err:
        classify(EmbeddingInstance(4, 2, broken))
    defect = err.value.defect
    assert defect.expected != defect.actual


def test_classify_rejects_degenerate_parameters():
    # a clique is not a Johnson image with 1 < m < l-1
    m = Subspace.line(F2, unit(0, 4))
    with pytest.raises((ClassificationError, ValidationError)):
        classify(star(m))
    # parameters outside the diameter bound are rejected up front
    inst = apartment_instance(F2, 6, 3)  # J(6,3) in a 6-space: fine
    cls = classify(inst)
    assert cls.case == "parabolic-apartment"
    gens5 = basis_lines(F2, 5)
    inst53 = build_construction(Subspace.zero(F2, 5), gens5, 2, False)
    # J(5,2) with m' = 2 <= min(2, 3): accepted
    assert classify(inst53).case == "star"


def test_classify_diameter_guard():
    # m' = 3 > min(k, n-k) = 2 can never be isometric; the guard fires first
    gens = basis_lines(F2, 6)
    inst = build_construction(Subspace.zero(F2, 6), gens, 3, False)  # J(6,3), k=3, n=6 fine
    cls = classify(inst)
    assert cls.m == 3
    with pytest.raises(ValidationError):
        # fabricate parameters l=8, m=4 against k=3: diameter obstruction message
        from grassmann_lab.embeddings import check_classification_params
        check_classification_params(8, 4, 3, 6)


def test_clique_independence_characterizes_parabolic_apartments():
    # apartments pass, and an image that is not an apartment of a
    # parabolic interval must fail (its star cliques carry more points
    # than their quotient dimension)
    inst = apartment_instance(F2, 4, 2)
    assert clique_independence(inst.image)
    base = Subspace.line(F2, unit(0, 5))
    parabolic = build_construction(
        base, [Subspace.from_rows(F2, 5, (unit(0, 5), unit(i, 5))) for i in range(1, 5)], 3, False)
    assert clique_independence(parabolic.image)
    gens = simplex_lines(F2, 4)
    inst5 = build_construction(Subspace.zero(F2, 4), gens, 2, False)
    assert not clique_independence(inst5.image)
    # a full star has more members than the quotient dimension
    m = Subspace.line(F2, unit(0, 4))
    assert not clique_independence(star(m))


def test_trichotomy_of_full_johnson_parameter_images():
    # J(n,k) images: below the midpoint they are star-type with a zero
    # base or top-type with a 2k-dimensional cover; at the midpoint they
    # are full apartments
    gens = simplex_lines(F2, 4)  # 5 points in a 4-space
    low = build_construction(Subspace.zero(F2, 5), [
        Subspace.line(F2, unit(i, 5)) for i in range(4)] + [
        Subspace.line(F2, (1, 1, 1, 1, 0))], 2, False)
    cls_low = classify(low)  # J(5,2) with 2k < n
    assert cls_low.case == "star" and cls_low.m_space.dim == 0
    cover = Subspace.from_rows(F2, 5, [unit(i, 5) for i in range(4)])
    hyps = [Subspace.from_rows(F2, 5, [r for j, r in enumerate(
        [unit(i, 5) for i in range(4)]) if j != t]) for t in range(4)]
    fifth = Subspace.from_rows(
        F2, 5, ((1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0)))
    inst_top = build_construction(cover, hyps + [fifth], 2, True)
    cls_top = classify(inst_top)  # J(5,2) with cover of dimension 2k
    assert cls_top.case == "top" and cls_top.n_space.dim == 4
    mid = classify(apartment_instance(F2, 4, 2))  # J(4,2) at n = 2k
    assert mid.case == "parabolic-apartment" and mid.is_full_apartment
    # above the midpoint the dual statements hold
    high = EmbeddingInstance(5, 2, {v: annihilator(s)
                                    for v, s in low.assignment.items()})
    cls_high = classify(high)  # J(5,2) into 3-spaces of a 5-space, 2k > n
    assert cls_high.case == "top" and cls_high.n_space.dim == 5


def test_classify_copes_with_gf3_and_gf4():
    for field, n in ((F3, 4), (GF.get(2, 2), 4)):
        inst = apartment_instance(field, n, 2)
        cls = classify(inst)
        assert cls.case == "parabolic-apartment" and cls.is_full_apartment
        bare = classify(inst.image)
        assert bare.case == "parabolic-apartment"


def _count_requests():
    """Each request with the number of pairwise isometry passes it makes:
    one per trust boundary, none for the constructors, which rest on their
    2m-independence certificate, and one for rigidity on a stored
    classification (classify's labeled input)."""
    gens = simplex_lines(F2, 4)
    hyperplanes = [annihilator(g) for g in gens]
    star = build_construction(Subspace.zero(F2, 4), gens, 2, False)
    top = build_construction(Subspace.full(F2, 4), hyperplanes, 2, True)
    docs = {inst: jsonio.classification_to_json(classify(inst)) for inst in (star, top)}
    return {
        "build sum": (lambda: build_construction(Subspace.zero(F2, 4), gens, 2, False), 0),
        "build dual": (lambda: build_construction(Subspace.full(F2, 4), hyperplanes, 2, True), 0),
        "classify labeled star": (lambda: classify(star), 1),
        "classify labeled top": (lambda: classify(top), 1),
        "classify bare star": (lambda: classify(star.image), 1),
        "classify bare top": (lambda: classify(top.image), 1),
        "rigidity embedding star": (lambda: is_rigid(star), 1),
        "rigidity embedding top": (lambda: is_rigid(top), 1),
        "rigidity document star": (
            lambda: is_rigid(jsonio.classification_from_json(docs[star])), 1),
        "rigidity document top": (
            lambda: is_rigid(jsonio.classification_from_json(docs[top])), 1),
    }


def test_isometry_passes_per_request(monkeypatch):
    requests = _count_requests()
    real = embeddings._first_defect
    calls = []

    def counting(m, vertices, rows, at):
        calls.append(m)
        return real(m, vertices, rows, at)

    monkeypatch.setattr(embeddings, "_first_defect", counting)
    counts = {}
    for name, (request, _) in requests.items():
        calls.clear()
        request()
        counts[name] = len(calls)
    assert counts == {name: passes for name, (_, passes) in requests.items()}


def _distance_requests():
    """Each input with the grassmannian.distance calls that a labeled and a
    bare classify make: one per unordered pair of the image either way.
    The labeled path spends them on its isometry check; the bare path reads
    the same table for its parameters, its adjacent pairs and the check of
    its rebuilt map, and carries it over to the annihilated image on a
    top-type input."""
    apartment = apartment_instance(F2, 4, 2)
    simplex = build_construction(Subspace.zero(F2, 4), simplex_lines(F2, 4), 2, False)
    dual = EmbeddingInstance(5, 2, {v: annihilator(s) for v, s in simplex.assignment.items()})
    return {"apartment J(4,2) in G(4,2,2)": (apartment, 15, 15),
            "J(5,2) simplex sum": (simplex, 45, 45),
            "its dual, top type": (dual, 45, 45)}


def test_distance_calls_per_classify(monkeypatch):
    real = grassmannian.distance
    calls = []

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(grassmannian, "distance", counting)
    requests = _distance_requests()
    counts = {}
    for name, (inst, _, _) in requests.items():
        calls.clear()
        classify(inst)
        labeled = len(calls)
        calls.clear()
        classify(inst.image)
        counts[name] = (labeled, len(calls))
    assert counts == {name: (labeled, bare) for name, (_, labeled, bare) in requests.items()}
