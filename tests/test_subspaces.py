import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from grassmann_lab import linalg
from grassmann_lab.errors import ValidationError
from grassmann_lab.fields import GF
from grassmann_lab.grassmannian import GrassmannianSpec, iter_rref_bases
from grassmann_lab.independence import m_dependency_witness, point_set
from grassmann_lab.subspaces import (SemilinearMap, Subspace, annihilator, contragredient,
                                     frame, from_coords_in, intersect_many, intersect_subspaces,
                                     lift_from_quotient, memoized, sum_many, sum_subspaces)

from helpers import dot, memo_active, vectors

F2 = GF.get(2)
F4 = GF.get(2, 2)


def unit(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def all_subspaces(field, n):
    out = []
    for k in range(n + 1):
        out.extend(Subspace(field, n, rows) for rows in iter_rref_bases(field, n, k))
    return out


def test_canonical_equality_and_hashing():
    s1 = Subspace.from_rows(F2, 3, ((1, 1, 0), (0, 1, 1)))
    s2 = Subspace.from_rows(F2, 3, ((1, 0, 1), (0, 1, 1)))
    assert s1 == s2 and hash(s1) == hash(s2)
    assert len({s1, s2}) == 1
    s3 = Subspace.from_rows(F2, 3, ((1, 0, 0), (0, 1, 1)))
    assert s1 != s3


def test_sum_intersect_basic():
    e0, e1, e2, e3 = (Subspace.line(F2, unit(i, 4)) for i in range(4))
    s = Subspace.from_rows(F2, 4, (unit(0, 4), unit(1, 4)))
    u = Subspace.from_rows(F2, 4, (unit(1, 4), unit(2, 4)))
    w = Subspace.from_rows(F2, 4, (unit(2, 4), unit(3, 4)))
    assert sum_subspaces(s, s) == s
    assert sum_subspaces(e0, e1) == s
    assert sum_subspaces(s, u).dim == 3
    assert intersect_subspaces(s, s) == s
    assert intersect_subspaces(s, w).dim == 0
    assert intersect_subspaces(s, u) == e1


def test_ambient_mismatch_rejected():
    a = Subspace.line(F2, (1, 0))
    b = Subspace.line(F2, (1, 0, 0))
    with pytest.raises(ValidationError):
        sum_subspaces(a, b)
    c = Subspace.line(GF.get(3), (1, 0))
    with pytest.raises(ValidationError):
        intersect_subspaces(a, c)


def test_sum_many_rejects_a_space_of_another_ambient_or_field():
    a = Subspace.line(F2, (1, 0))
    with pytest.raises(ValidationError, match=r"GF\(2\)\^3 in a sum over GF\(2\)\^2"):
        sum_many(F2, 2, [a, Subspace.line(F2, (1, 0, 0))])
    with pytest.raises(ValidationError, match=r"GF\(2\)\^2 in a sum over GF\(2\)\^3"):
        sum_many(F2, 3, [a])
    with pytest.raises(ValidationError, match=r"GF\(3\)\^2 in a sum over GF\(2\)\^2"):
        sum_many(F2, 2, [a, Subspace.line(GF.get(3), (1, 0))])


def test_modular_law_exhaustive_f2_cubed():
    spaces = all_subspaces(F2, 3)
    assert len(spaces) == 1 + 7 + 7 + 1
    for s, u in itertools.product(spaces, repeat=2):
        total = sum_subspaces(s, u)
        meet = intersect_subspaces(s, u)
        assert total.dim + meet.dim == s.dim + u.dim
        assert total.contains(s) and total.contains(u)
        assert s.contains(meet) and u.contains(meet)


def test_annihilator_dimensions_and_involution():
    zero = Subspace.zero(F2, 4)
    assert annihilator(zero).dim == 4
    e0 = Subspace.line(F2, unit(0, 4))
    assert annihilator(e0) == Subspace.from_rows(F2, 4, (unit(1, 4), unit(2, 4), unit(3, 4)))
    for s in all_subspaces(F2, 3):
        assert annihilator(annihilator(s)) == s
        assert annihilator(s).dim == 3 - s.dim


def test_annihilator_pairing_by_brute_force():
    s = Subspace.line(F2, (1, 1, 0))
    ann = annihilator(s)
    assert ann.dim == 2
    assert ann.contains_vector((1, 1, 0))
    for phi in vectors(ann):
        for v in vectors(s):
            assert dot(F2, phi, v) == 0
    # and nothing more vanishes on s
    count = sum(1 for phi in itertools.product((0, 1), repeat=3)
                if all(dot(F2, phi, v) == 0 for v in vectors(s)))
    assert count == 2 ** ann.dim


def test_annihilator_reverses_inclusions_and_swaps_lattice_ops():
    spaces = all_subspaces(F2, 3)
    for s, u in itertools.product(spaces, repeat=2):
        assert annihilator(sum_subspaces(s, u)) == intersect_subspaces(annihilator(s),
                                                                       annihilator(u))
        assert annihilator(intersect_subspaces(s, u)) == sum_subspaces(annihilator(s),
                                                                       annihilator(u))
        if u.contains(s):
            assert annihilator(s).contains(annihilator(u))


def test_apply_semilinear_identity_and_permutation():
    s = Subspace.from_rows(F2, 3, ((1, 0, 1),))
    assert SemilinearMap(F2, linalg.identity(3)).apply(s) == s
    swap01 = SemilinearMap(F2, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    e0 = Subspace.line(F2, unit(0, 3))
    assert swap01.apply(e0) == Subspace.line(F2, unit(1, 3))
    # apply canonicalizes its rows without entry checks, so it refuses a
    # space over another field and a space of another dimension up front
    for other in (Subspace.line(F4, (1, 2, 3)), Subspace.line(F2, (1, 0))):
        with pytest.raises(ValidationError, match="mismatch applying semilinear map"):
            swap01.apply(other)


def test_apply_semilinear_respects_sums_and_intersections():
    rng = random.Random(5)
    maps = []
    while len(maps) < 3:
        m = tuple(tuple(rng.randrange(2) for _ in range(3)) for _ in range(3))
        if linalg.is_invertible(F2, m):
            maps.append(SemilinearMap(F2, m))
    spaces = all_subspaces(F2, 3)
    for u in maps:
        for s, t in itertools.product(spaces[:8], repeat=2):
            assert u.apply(sum_subspaces(s, t)) == sum_subspaces(u.apply(s), u.apply(t))
            assert u.apply(intersect_subspaces(s, t)) == intersect_subspaces(
                u.apply(s), u.apply(t))


def test_frobenius_twisted_image_matches_pointwise_mapping():
    # over GF(4): diagonal map with the Frobenius twist, checked against
    # the image of every vector of the line
    omega = 2  # a primitive element of GF(4)
    diag = ((1, 0), (0, omega))
    u = SemilinearMap(F4, diag, sigma=1)
    line = Subspace.line(F4, (1, omega))
    image = u.apply(line)
    pointwise = {u.apply_vector(v) for v in vectors(line)}
    assert {tuple(v) for v in vectors(image)} == pointwise
    # sigma(omega) = omega^2, then scaled by the diagonal entry
    expected = Subspace.line(F4, (1, F4.mul(F4.frobenius(omega), omega)))
    assert image == expected


def test_semilinear_requires_invertible_matrix():
    with pytest.raises(ValidationError):
        SemilinearMap(F2, ((1, 1), (1, 1)))


def test_contragredient_identity_and_permutation():
    ident = SemilinearMap(F2, linalg.identity(3))
    assert contragredient(ident).matrix == ident.matrix
    perm = SemilinearMap(F2, ((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    assert contragredient(perm).matrix == perm.matrix


def test_contragredient_law_all_planes_f2_fourth():
    rng = random.Random(9)
    while True:
        m = tuple(tuple(rng.randrange(2) for _ in range(4)) for _ in range(4))
        if linalg.is_invertible(F2, m):
            break
    u = SemilinearMap(F2, m)
    ud = contragredient(u)
    spec = GrassmannianSpec(F2, 4, 2)
    assert len(spec) == 35
    for s in spec.subspaces:
        assert ud.apply(annihilator(s)) == annihilator(u.apply(s))
    assert contragredient(ud).matrix == u.matrix


def test_contragredient_law_with_frobenius_twist():
    m = ((1, 0), (omega := 2, 1))
    u = SemilinearMap(F4, m, sigma=1)
    ud = contragredient(u)
    for rows in iter_rref_bases(F4, 2, 1):
        s = Subspace(F4, 2, rows)
        assert ud.apply(annihilator(s)) == annihilator(u.apply(s))


def test_quotient_and_section_coordinates_round_trip():
    m = Subspace.from_rows(F2, 4, ((1, 0, 1, 0),))
    for rows in iter_rref_bases(F2, 3, 2):
        lifted = lift_from_quotient(m, rows)
        assert lifted.dim == 3 and lifted.contains(m)
    n_space = Subspace.from_rows(F2, 4, ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 1)))
    for rows in iter_rref_bases(F2, 3, 2):
        inside = from_coords_in(n_space, rows)
        assert n_space.contains(inside) and inside.dim == 2


def test_vectors_enumeration():
    s = Subspace.from_rows(F2, 3, ((1, 0, 1), (0, 1, 1)))
    vecs = set(vectors(s))
    assert len(vecs) == 4
    assert all(s.contains_vector(v) for v in vecs)


# the Zassenhaus meet ---------------------------------------------------------

MEET_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4)]


def reference_meet(s, u):
    return annihilator(sum_subspaces(annihilator(s), annihilator(u)))


@st.composite
def subspace_families(draw, min_size=2, max_size=2):
    """Subspaces of one F^n, n <= 6, over one field of MEET_FIELDS, each
    spanned by up to n random rows."""
    p, e = draw(st.sampled_from(MEET_FIELDS))
    F = GF.get(p, e)
    n = draw(st.integers(1, 6))
    entry = st.integers(0, F.q - 1)
    spaces = []
    for _ in range(draw(st.integers(min_size, max_size))):
        rows = draw(st.lists(st.tuples(*[entry] * n), max_size=n))
        spaces.append(Subspace.from_rows(F, n, rows))
    return F, n, spaces


@settings(derandomize=True, max_examples=400, deadline=None)
@given(subspace_families())
def test_zassenhaus_meet_equals_the_annihilator_meet(family):
    _, _, (s, u) = family
    meet = intersect_subspaces(s, u)
    assert meet == reference_meet(s, u)
    assert meet == intersect_subspaces(u, s)
    assert meet.dim == s.dim + u.dim - sum_subspaces(s, u).dim


@settings(derandomize=True, max_examples=200, deadline=None)
@given(subspace_families(min_size=0, max_size=4))
def test_sums_canonicalize_like_from_rows(family):
    # sums skip from_rows' entry checks; the spaces are canonical already
    F, n, spaces = family
    expected = Subspace.from_rows(F, n, [r for s in spaces for r in s.rows])
    assert sum_many(F, n, spaces) == expected
    if len(spaces) == 2:
        assert sum_subspaces(*spaces) == expected


@settings(derandomize=True, max_examples=200, deadline=None)
@given(subspace_families())
def test_memoized_sums_and_meets_equal_the_plain_ones(family):
    _, _, (s, u) = family
    plain = sum_subspaces(s, u), intersect_subspaces(s, u)
    assert not memo_active()
    with memoized():
        assert memo_active()
        for _ in range(2):
            assert (sum_subspaces(s, u), intersect_subspaces(s, u)) == plain
            assert (sum_subspaces(u, s), intersect_subspaces(u, s)) == plain
    assert not memo_active()


def test_memoized_frames_and_annihilators_are_shared_immutable_values():
    base = Subspace.line(F4, (1, 0, 0, 0))
    spaces = tuple(sum_subspaces(base, Subspace.line(F4, v))
                   for v in [(0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0), (0, 1, 2, 0)])
    plain = frame(base, spaces)
    with memoized():
        shared = frame(base, spaces)
        # one entry, handed to every caller, so no caller may change it
        assert frame(base, spaces) is shared
        assert shared == plain
        assert isinstance(shared, tuple)
        assert all(isinstance(part, tuple) for part in shared)
        assert all(isinstance(rep, tuple) for rep in shared[0])
        assert all(isinstance(coords, tuple) for coords in shared[2])
        assert annihilator(base) is annihilator(base)
    assert annihilator(base) is not annihilator(base)


@pytest.mark.parametrize("p,e", MEET_FIELDS)
def test_zassenhaus_meet_of_zero_full_nested_and_equal_spaces(p, e):
    F = GF.get(p, e)
    rng = random.Random(p * 100 + e)
    n = 5
    zero, full = Subspace.zero(F, n), Subspace.full(F, n)
    for _ in range(20):
        s = Subspace.from_rows(F, n, [[rng.randrange(F.q) for _ in range(n)]
                                      for _ in range(rng.randrange(1, n))])
        inner = Subspace.from_rows(F, n, s.rows[:rng.randrange(len(s.rows) + 1)])
        twin = Subspace.from_rows(F, n, s.rows[::-1])
        for a, b, meet in [(s, zero, zero), (s, full, s), (full, full, full),
                           (zero, zero, zero), (s, inner, inner), (s, twin, s)]:
            assert intersect_subspaces(a, b) == meet == reference_meet(a, b)
            assert intersect_subspaces(b, a) == meet


def test_intersect_many_of_no_spaces_is_the_full_space():
    for p, e in MEET_FIELDS:
        F = GF.get(p, e)
        assert intersect_many(F, 4, []) == Subspace.full(F, 4)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(subspace_families(min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_intersect_many_does_not_depend_on_the_order(family, rng):
    F, n, spaces = family
    meet = intersect_many(F, n, spaces)
    assert meet == intersect_many(F, n, rng.sample(spaces, len(spaces)))
    expected = Subspace.full(F, n)
    for s in spaces:
        expected = reference_meet(expected, s)
    assert meet == expected


# the exhaustive GF(2) laws, drawn over every field of MEET_FIELDS -------------


@settings(derandomize=True, max_examples=300, deadline=None)
@given(subspace_families(min_size=3, max_size=3))
def test_modular_law(family):
    # with s inside w: (s + u) meet w == s + (u meet w)
    _, _, (s, u, t) = family
    w = sum_subspaces(s, t)
    assert intersect_subspaces(sum_subspaces(s, u), w) == sum_subspaces(
        s, intersect_subspaces(u, w))
    total, meet = sum_subspaces(s, u), intersect_subspaces(s, u)
    assert total.dim + meet.dim == s.dim + u.dim
    assert total.contains(s) and total.contains(u)
    assert s.contains(meet) and u.contains(meet)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(subspace_families())
def test_annihilator_involution_and_inclusion_reversal(family):
    F, n, (s, t) = family
    ann = annihilator(s)
    assert ann.dim == n - s.dim
    assert annihilator(ann) == s
    assert all(dot(F, phi, v) == 0 for phi in ann.rows for v in s.rows)
    u = sum_subspaces(s, t)  # u contains s
    assert ann.contains(annihilator(u))
    assert annihilator(u) == intersect_subspaces(ann, annihilator(t))
    assert annihilator(intersect_subspaces(s, t)) == sum_subspaces(ann, annihilator(t))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(subspace_families(min_size=1, max_size=1), st.data())
def test_contragredient_law(family, data):
    F, n, (s,) = family
    entry = st.integers(0, F.q - 1)
    matrix = data.draw(st.tuples(*[st.tuples(*[entry] * n)] * n)
                       .filter(lambda m: linalg.is_invertible(F, m)))
    u = SemilinearMap(F, matrix, data.draw(st.integers(0, F.e - 1)))
    ud = contragredient(u)
    assert ud.apply(annihilator(s)) == annihilator(u.apply(s))
    assert contragredient(ud) == u


# points over a base -----------------------------------------------------------

FRAME_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]


@st.composite
def points_over_a_base(draw):
    """A base M of some F^n, n <= 6, over one field of FRAME_FIELDS, and
    distinct generators M + <v>, each one dimension over M."""
    p, e = draw(st.sampled_from(FRAME_FIELDS))
    F = GF.get(p, e)
    n = draw(st.integers(1, 6))
    vector = st.tuples(*[st.integers(0, F.q - 1)] * n)
    base = Subspace.from_rows(F, n, draw(st.lists(vector, max_size=n - 1)))
    gens = []
    for v in draw(st.lists(vector, min_size=1, max_size=7)):
        g = sum_subspaces(base, Subspace.line(F, v))
        if g.dim == base.dim + 1 and g not in gens:
            gens.append(g)
    return F, n, base, gens, draw(st.lists(vector, max_size=4))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(points_over_a_base(), st.integers(1, 7))
def test_frame_point_sets_and_containment_read_the_same_ranks(draw, size):
    F, n, base, gens, listed = draw
    if gens:
        points = point_set(F, frame(base, gens)[2])
        size = min(size, len(gens))
        first = next((subset for subset in itertools.combinations(range(len(gens)), size)
                      if sum_many(F, n, [gens[i] for i in subset]).dim < base.dim + size),
                     None)
        assert m_dependency_witness(points, size) == first
    # membership against the listed vectors, for spaces with at most 729
    family = [base, *gens, Subspace.from_rows(F, n, listed)]
    for s in family:
        if F.q ** s.dim > 729:
            continue
        members = set(vectors(s))
        assert all(s.contains_vector(v) for v in members)
        assert all(s.contains_vector(v) == (v in members) for v in listed)
        for t in family:
            assert s.contains(t) == all(r in members for r in t.rows)
