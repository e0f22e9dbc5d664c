import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from grassmann_lab import linalg
from grassmann_lab.fields import GF
from grassmann_lab.grassmannian import pg_points
from grassmann_lab.subspaces import Subspace

from helpers import dot, point_mask, vectors

# every field with q <= 16; GF(2) has no separate path of its own
FIELDS_UP_TO_16 = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                   (11, 1), (13, 1), (2, 4)]


def brute_force_rank(F, rows):
    """Independent rank oracle: the size of the span generated by all
    coefficient combinations, as a power of q."""
    span = {(0,) * len(rows[0])} if rows else {()}
    for coeffs in itertools.product(F.elements(), repeat=len(rows)):
        v = (0,) * len(rows[0])
        for c, row in zip(coeffs, rows):
            v = tuple(F.add(x, F.mul(c, y)) for x, y in zip(v, row))
        span.add(v)
    size = len(span)
    rank = 0
    while size > 1:
        size //= F.q
        rank += 1
    return rank


def test_rref_identity_fixed_point():
    F = GF.get(2)
    ident = linalg.identity(3)
    reduced, rank, pivots = linalg.rref(F, ident)
    assert reduced == ident and rank == 3 and pivots == (0, 1, 2)


def test_rref_zero_matrix():
    F = GF.get(2)
    z = ((0, 0, 0, 0), (0, 0, 0, 0))
    reduced, rank, pivots = linalg.rref(F, z)
    assert reduced == z and rank == 0 and pivots == ()


def test_rref_dependent_rows_gf2():
    F = GF.get(2)
    rows = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    reduced, rank, _ = linalg.rref(F, rows)
    assert rank == 2
    assert rank == brute_force_rank(F, rows)
    assert reduced[2] == (0, 0, 0)


@pytest.mark.parametrize("p,e", FIELDS_UP_TO_16)
def test_rref_idempotent_and_unique(p, e):
    F = GF.get(p, e)
    rng = random.Random(7)
    for _ in range(40):
        rows = tuple(tuple(rng.randrange(F.q) for _ in range(4)) for _ in range(3))
        reduced, rank, _ = linalg.rref(F, rows)
        again, rank2, _ = linalg.rref(F, reduced)
        assert again == reduced and rank2 == rank
        # any row-scrambled, row-recombined variant reduces identically
        scrambled = list(rows)
        rng.shuffle(scrambled)
        scale = rng.randrange(1, F.q)
        scrambled[0] = tuple(F.add(F.mul(scale, x), y)
                             for x, y in zip(scrambled[0], scrambled[1]))
        red2, rank3, _ = linalg.rref(F, tuple(scrambled))
        assert red2 == reduced and rank3 == rank


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_rank_matches_brute_force(p, e):
    F = GF.get(p, e)
    rng = random.Random(11)
    for _ in range(30):
        rows = tuple(tuple(rng.randrange(F.q) for _ in range(3)) for _ in range(3))
        assert linalg.rank(F, rows) == brute_force_rank(F, rows)


def test_nullspace_annihilates():
    F = GF.get(3)
    rows = ((1, 2, 0, 1), (0, 1, 1, 1))
    basis = linalg.nullspace(F, rows, 4)
    assert len(basis) == 2
    for v in basis:
        for r in rows:
            assert dot(F, r, v) == 0
    # canonical: nullspace of the nullspace-orthogonal system recovers nothing new
    again, rank, _ = linalg.rref(F, basis)
    assert again[:rank] == basis


def test_inverse_round_trip():
    F = GF.get(2, 2)
    rng = random.Random(3)
    found = 0
    while found < 10:
        a = tuple(tuple(rng.randrange(F.q) for _ in range(3)) for _ in range(3))
        if not linalg.is_invertible(F, a):
            continue
        found += 1
        inv = linalg.inverse(F, a)
        assert linalg.matmul(F, a, inv) == linalg.identity(3)
        assert linalg.matmul(F, inv, a) == linalg.identity(3)


def test_singular_inverse_rejected():
    F = GF.get(2)
    from grassmann_lab.errors import ValidationError
    with pytest.raises(ValidationError):
        linalg.inverse(F, ((1, 1), (1, 1)))


def test_vecmat_matches_matvec_transpose():
    F = GF.get(3)
    x = (1, 2, 0)
    a = ((1, 0, 2, 1), (2, 2, 0, 1), (0, 1, 1, 1))
    matvec = tuple(dot(F, col, x) for col in linalg.transpose(a))
    assert linalg.vecmat(F, x, a) == matvec


# property tests for the one elimination routine and the point masks

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


@st.composite
def matrices(draw, max_rows=6, max_cols=6):
    """A field with q <= 16 and a matrix over it: empty, zero-width, tall,
    wide or square, with all-zero rows drawn often."""
    F = GF.get(*draw(st.sampled_from(FIELDS_UP_TO_16)))
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    row = st.one_of(st.just((0,) * ncols),
                    st.tuples(*[st.integers(0, F.q - 1)] * ncols))
    return F, tuple(draw(row) for _ in range(nrows))


def is_rref(reduced, rank, pivots):
    if list(pivots) != sorted(set(pivots)) or len(pivots) != rank:
        return False
    for i, row in enumerate(reduced):
        if i >= rank:
            if any(row):
                return False
            continue
        lead = next(c for c, x in enumerate(row) if x)
        if lead != pivots[i] or row[lead] != 1:
            return False
        if any(reduced[j][lead] for j in range(len(reduced)) if j != i):
            return False
    return True


@PROPERTY
@given(matrices())
def test_rank_is_the_rref_rank(case):
    F, a = case
    reduced, rk, pivots = linalg.rref(F, a)
    assert linalg.rank(F, a) == rk
    assert len(reduced) == len(a)
    assert all(len(row) == len(r) for row, r in zip(reduced, a))
    assert is_rref(reduced, rk, pivots)


@PROPERTY
@given(matrices(max_rows=4, max_cols=4))
def test_rank_matches_brute_force_on_small_shapes(case):
    F, a = case
    assume(F.q ** len(a) <= 4096)
    assert linalg.rank(F, a) == (brute_force_rank(F, a) if a else 0)


@PROPERTY
@given(matrices(), st.randoms(use_true_random=False))
def test_rref_is_idempotent_and_ignores_row_operations(case, rng):
    F, a = case
    reduced, rk, pivots = linalg.rref(F, a)
    assert linalg.rref(F, reduced) == (reduced, rk, pivots)
    rows = list(a)
    rng.shuffle(rows)
    if len(rows) >= 2:
        i, j = rng.sample(range(len(rows)), 2)
        c, u = rng.randrange(F.q), rng.randrange(1, F.q)
        rows[i] = tuple(F.add(F.mul(u, x), F.mul(c, y)) for x, y in zip(rows[i], rows[j]))
    assert linalg.rref(F, tuple(rows)) == (reduced, rk, pivots)


@PROPERTY
@given(matrices(max_rows=4, max_cols=4))
def test_point_mask_sets_exactly_the_points_of_the_span(case):
    F, a = case
    n = len(a[0]) if a else 0
    assume(0 < n and F.q ** n <= 4096)
    s = Subspace.from_rows(F, n, a)
    bit = {p.rows[0]: b for b, p in enumerate(pg_points(F, n))}
    expected = 0
    for v in vectors(s):
        if any(v):
            lead = next(x for x in v if x)
            expected |= 1 << bit[linalg.vec_scale(F, F.inv(lead), v)]
    mask = point_mask(s)
    assert mask == expected
    assert mask.bit_count() == (F.q ** s.dim - 1) // (F.q - 1)
