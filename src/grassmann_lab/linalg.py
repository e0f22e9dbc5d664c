"""Dense exact linear algebra over a GF instance.

Matrices are tuples of row tuples of int-encoded field elements; all
functions are pure and return new tuples.  One routine, the forward
elimination :func:`_forward`, does all row reduction for every q:
:func:`rank` counts its pivots (and so decides ``Subspace.contains``),
and :func:`rref` (and through it :func:`nullspace`, :func:`inverse` and
``Subspace.from_rows``) adds back-substitution.  Reduced row echelon
form is the canonical representative used for subspace identity
throughout the package, so :func:`rref` must stay deterministic.
"""

from __future__ import annotations

from .errors import ValidationError
from .fields import GF

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def vec_scale(F: GF, c: int, x: Vector) -> Vector:
    return tuple(F.mul(c, a) for a in x)


def vecmat(F: GF, x: Vector, a: Matrix) -> Vector:
    """Row vector times matrix."""
    add, mul = F._add, F._mul
    cols = len(a[0]) if a else 0
    out = [0] * cols
    for xi, row in zip(x, a):
        if xi:
            scale = mul[xi]
            for j, rj in enumerate(row):
                if rj:
                    out[j] = add[out[j]][scale[rj]]
    return tuple(out)


def matmul(F: GF, a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValidationError(f"shape mismatch {len(a[0])} vs {len(b)}")
    return tuple(vecmat(F, row, b) for row in a)


def _forward(F: GF, a: Matrix) -> tuple[list, list[int]]:
    """Forward elimination, the one elimination loop of the package.

    Returns the rows in echelon form, each pivot row scaled to lead with 1
    and zero rows last, and the pivot columns.  Input rows are never
    mutated: a changed row is a new list, an unchanged one is passed on.
    """
    add, mul, neg, inv = F._add, F._mul, F._neg, F._inv
    rows = list(a)
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        lead = prow[c]
        if lead != 1:
            scale = mul[inv[lead]]
            prow = [scale[x] for x in prow]
        rows[r] = prow
        pivots.append(c)
        r += 1
        if r == nrows:
            break
        for i in range(r, nrows):
            row = rows[i]
            f = row[c]
            if f:
                scale = mul[neg[f]]
                rows[i] = [add[x][scale[y]] for x, y in zip(row, prow)]
    return rows, pivots


def rref(F: GF, a: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form: :func:`_forward`, then back-substitution
    above each pivot.

    Returns (R, rank, pivot_columns).  R has the same shape as the input
    with zero rows collected at the bottom, and is the unique RREF of the
    row space, so rref(rref(a)) == rref(a).
    """
    add, mul, neg = F._add, F._mul, F._neg
    rows, pivots = _forward(F, a)
    for r, c in enumerate(pivots):
        prow = rows[r]
        for i in range(r):
            if rows[i][c]:
                scale = mul[neg[rows[i][c]]]
                rows[i] = [add[x][scale[y]] for x, y in zip(rows[i], prow)]
    return tuple(map(tuple, rows)), len(pivots), tuple(pivots)


def rank(F: GF, a: Matrix) -> int:
    return len(_forward(F, a)[1])


def nullspace(F: GF, a: Matrix, ncols: int) -> Matrix:
    """RREF basis of the right kernel {x : a @ x == 0}."""
    if not a:
        return identity(ncols)
    reduced, rk, pivots = rref(F, a)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = F.neg(reduced[i][fc])
        basis.append(tuple(vec))
    if not basis:
        return ()
    canon, rk2, _ = rref(F, tuple(basis))
    return canon[:rk2]


def inverse(F: GF, a: Matrix) -> Matrix:
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValidationError("inverse requires a square matrix")
    aug = tuple(tuple(a[i]) + tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    reduced, rk, _ = rref(F, aug)
    if rk < n or any(reduced[i][i] != 1 for i in range(n)):
        raise ValidationError("matrix is singular")
    return tuple(row[n:] for row in reduced[:n])


def is_invertible(F: GF, a: Matrix) -> bool:
    n = len(a)
    return n == 0 or (len(a[0]) == n and rank(F, a) == n)


def frobenius_vec(F: GF, x: Vector, t: int) -> Vector:
    if t % F.e == 0:
        return tuple(x)
    return tuple(F.frobenius(c, t) for c in x)
