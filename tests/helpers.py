"""Independent references shared by several test modules.

None of these is on a code path of the package: each rebuilds by brute
force something the package decides another way, so tests can compare
the two.  The last section counts eliminations, so tests can pin by
count what the package's memo saves.
"""

import functools
import itertools
import math

from grassmann_lab import linalg
from grassmann_lab.errors import ValidationError
from grassmann_lab.fields import GF
from grassmann_lab.grassmannian import (GrassmannianSpec, distance, distance_rows, pg_points,
                                        point_ids)
from grassmann_lab.independence import PointSet
from grassmann_lab.johnson import johnson_distance, johnson_vertices
from grassmann_lab.subspaces import (SemilinearMap, Subspace, from_coords_in, intersect_many,
                                     intersect_subspaces, lift_from_quotient, sum_many,
                                     sum_subspaces)


def frame_count(n, q):
    """Unordered independent point frames of PG(n-1, q):
    |GL(n, q)| / ((q-1)^n * n!)."""
    gl = 1
    for i in range(n):
        gl *= q ** n - q ** i
    return gl // ((q - 1) ** n * math.factorial(n))


def johnson_adjacent(a: int, b: int, m: int) -> bool:
    """Whether the J(l, m) vertices a and b (bitmasks) are adjacent."""
    return johnson_distance(a, b, m) == 1


def johnson_aut_group_order(l: int, m: int) -> int:
    """|Aut J(l, m)| for 1 < m < l - 1: l! ground-set permutations, doubled
    by complementation when l == 2m."""
    if not 1 < m < l - 1:
        raise ValidationError(f"automorphism dichotomy needs 1 < m < l-1, got l={l}, m={m}")
    return math.factorial(l) * (2 if l == 2 * m else 1)


def vectors(s: Subspace):
    """All q^dim vectors of s, for exhaustive checks at tiny sizes."""
    F, n = s.field, s.ambient_dim
    for coeffs in itertools.product(F.elements(), repeat=s.dim):
        v = (0,) * n
        for c, row in zip(coeffs, s.rows):
            v = tuple(F.add(a, F.mul(c, b)) for a, b in zip(v, row))
        yield v


def point_mask(s: Subspace) -> int:
    """The projective points of s as an int with one bit per point of
    F_q^n, numbered in pg_points order."""
    return sum(1 << p for p in point_ids(s))


def pointset_to_json(ps: PointSet) -> dict:
    """The pointset document that jsonio.pointset_from_json reads."""
    return {"schema_version": 1,
            "ambient": {"kind": ps.ambient.kind, "dim": ps.ambient.dim,
                        "p": ps.ambient.field.p, "e": ps.ambient.field.e},
            "points": [list(p.rows[0]) for p in ps.points]}


def dot(F: GF, x, y) -> int:
    """The bilinear form sum x_i y_i over F."""
    acc = 0
    for a, b in zip(x, y):
        acc = F.add(acc, F.mul(a, b))
    return acc


def reference_graph(name: str, attributes, neighbours):
    """The chunks of dot._graph, written with one str.find per edge and
    one f-string per edge line."""
    yield f"graph {name} {{\n"
    for i, attrs in enumerate(attributes):
        yield f"  {i} [{attrs}];\n"
    for i, adjacent in enumerate(neighbours):
        # character j of the reversed numeral is bit i + 1 + j
        above = format(adjacent >> i + 1, "b")[::-1]
        edges = []
        j = above.find("1")
        while j >= 0:
            edges.append(f"  {i} -- {i + 1 + j};\n")
            j = above.find("1", j + 1)
        yield "".join(edges)
    yield "}\n"


# Grassmann graph cliques and apartments -----------------------------------


def adjacent(s: Subspace, u: Subspace) -> bool:
    return distance(s, u) == 1


def star(m: Subspace) -> frozenset[Subspace]:
    """All (dim m + 1)-subspaces over m; a maximal clique of the graph on
    that level when the level is strictly between 1 and n-1."""
    return frozenset(
        lift_from_quotient(m, pt.rows)
        for pt in pg_points(m.field, m.ambient_dim - m.dim))


def top(n_space: Subspace) -> frozenset[Subspace]:
    """All hyperplanes of n_space, i.e. the top clique under it."""
    F, d = n_space.field, n_space.dim
    return frozenset(from_coords_in(n_space, linalg.nullspace(F, pt.rows, d))
                     for pt in pg_points(F, d))


def apartment_from_frame(points, k: int) -> frozenset[Subspace]:
    """The subspaces spanned by k-subsets of an independent point frame.

    The restriction of the Grassmann graph to the result is a Johnson
    graph on len(points) symbols.
    """
    points = list(points)
    if not points:
        raise ValidationError("empty frame")
    F = points[0].field
    n = points[0].ambient_dim
    if len(points) != n:
        raise ValidationError(f"frame needs {n} points, got {len(points)}")
    for p in points:
        if p.dim != 1:
            raise ValidationError("frame members must be one-dimensional")
    stacked = tuple(p.rows[0] for p in points)
    if linalg.rank(F, stacked) != n:
        raise ValidationError("frame points are linearly dependent")
    if not 1 <= k <= n:
        raise ValidationError(f"bad k={k} for a frame of size {n}")
    return frozenset(
        Subspace.from_rows(F, n, tuple(points[i].rows[0] for i in combo))
        for combo in itertools.combinations(range(n), k))


def enumerate_apartments(field: GF, n: int, k: int) -> set[frozenset[Subspace]]:
    """One apartment per independent n-point frame, deduplicated; walks
    every n-subset of the points of PG(n-1, q)."""
    points = pg_points(field, n)
    reps = [p.rows[0] for p in points]
    out: set[frozenset[Subspace]] = set()
    for combo in itertools.combinations(range(len(points)), n):
        if linalg.rank(field, tuple(reps[i] for i in combo)) == n:
            out.add(apartment_from_frame([points[i] for i in combo], k))
    return out


def clique_independence(image) -> bool:
    """Whether every maximal clique of the induced graph is an independent
    family: star members must be independent points of the quotient over
    the clique's center, top members independent hyperplanes of its cover.

    A clique of two or more lies in the star over the meet, or the top
    under the sum, of any two of its members, so the families sharing the
    meet or the sum of an adjacent pair include every maximal clique.  Any
    other such family lies in a line inside a maximal one, and is
    dependent only with three or more members, which make the maximal one
    dependent too.  A member adjacent to none is a clique of one, which
    counts as dependent.
    """
    members = sorted(frozenset(image), key=lambda s: s.rows)
    if not members:
        raise ValidationError("empty image")
    field, n, k = members[0].field, members[0].ambient_dim, members[0].dim
    table = distance_rows(members)
    if not all(1 in row for row in table):
        return False
    if not 1 < k < n - 1:
        raise ValidationError("maximal-clique structure requires 1 < k < n-1")
    stars: dict[Subspace, set[Subspace]] = {}
    tops: dict[Subspace, set[Subspace]] = {}
    for i, j in itertools.combinations(range(len(members)), 2):
        if table[i][j] == 1:
            a, b = members[i], members[j]
            stars.setdefault(intersect_subspaces(a, b), set()).update((a, b))
            tops.setdefault(sum_subspaces(a, b), set()).update((a, b))
    return (all(sum_many(field, n, family).dim == center.dim + len(family)
                for center, family in stars.items())
            and all(intersect_many(field, n, family).dim == cover.dim - len(family)
                    for cover, family in tops.items()))


# oracle images --------------------------------------------------------------


def image_subspace_sets(result) -> set[frozenset[Subspace]]:
    """The images of an oracle result as sets of subspaces."""
    return {frozenset(result.spec.by_id(i) for i in image) for image in result.images}


def labeled_embeddings(spec: GrassmannianSpec, l: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Every isometric embedding of J(l, m) into spec's Grassmann graph, as
    the ids of the Johnson vertices in lexicographic order; memoized per
    field, n, k, l and m.

    A plain recursive backtracker over rank distances (distance_rows), with
    no symmetry breaking: each image is reached once per automorphism of
    J(l, m).  It shares neither the oracle's distance bitsets nor its
    search loop, so the oracle's one-leaf-per-image search can be checked
    against its projections.
    """
    return _labeled_embeddings(spec.field, spec.n, spec.k, l, m)


@functools.cache
def _labeled_embeddings(field: GF, n: int, k: int, l: int, m: int
                        ) -> tuple[tuple[int, ...], ...]:
    spaces = GrassmannianSpec(field, n, k).subspaces
    # around[i][d]: the ids at distance d from id i
    around = [[{j for j, dj in enumerate(row) if dj == d} for d in range(max(row) + 1)]
              for row in distance_rows(spaces)]
    vertices = johnson_vertices(l, m)
    jdist = [[johnson_distance(a, b, m) for b in vertices] for a in vertices]
    found = []
    placed: list[int] = []

    def extend():
        t = len(placed)
        if t == len(vertices):
            found.append(tuple(placed))
            return
        want = jdist[t]
        cands = (set.intersection(*[around[p][want[s]] for s, p in enumerate(placed)])
                 if placed else range(len(spaces)))
        for c in sorted(cands):
            placed.append(c)
            extend()
            placed.pop()

    extend()
    return tuple(found)


def pgl_generators(field: GF, n: int) -> list[SemilinearMap]:
    """Generators of the semilinear automorphism group of F_q^n: an n-cycle,
    one transvection, a primitive scaling (q > 2), and Frobenius (e > 1)."""
    gens = []
    cycle = tuple(tuple(1 if j == (i + 1) % n else 0 for j in range(n)) for i in range(n))
    gens.append(SemilinearMap(field, cycle, 0))
    transvection = tuple(
        tuple(1 if j == i or (i == 0 and j == 1) else 0 for j in range(n)) for i in range(n))
    gens.append(SemilinearMap(field, transvection, 0))
    if field.q > 2:
        unit = next(a for a in range(1, field.q) if a != 1)
        # any non-identity unit works together with the transvections
        diag = tuple(tuple((unit if i == 0 else 1) if i == j else 0 for j in range(n))
                     for i in range(n))
        gens.append(SemilinearMap(field, diag, 0))
    if field.e > 1:
        gens.append(SemilinearMap(field, linalg.identity(n), 1))
    return gens


def orbit_closure(spec: GrassmannianSpec, images: set[tuple[int, ...]]
                  ) -> set[tuple[int, ...]]:
    """Close a set of id-tuple images under the semilinear automorphism
    group, by breadth-first orbit expansion over generator action tables."""
    tables = [[spec.index[g.apply(spec.by_id(i))] for i in range(len(spec))]
              for g in pgl_generators(spec.field, spec.n)]
    closed = set(images)
    frontier = list(images)
    while frontier:
        nxt = []
        for image in frontier:
            for table in tables:
                moved = tuple(sorted(table[i] for i in image))
                if moved not in closed:
                    closed.add(moved)
                    nxt.append(moved)
        frontier = nxt
    return closed


# elimination counts ---------------------------------------------------------


def rref_calls(fn):
    """fn()'s result, and how many times it called linalg.rref."""
    calls = 0
    real = linalg.rref

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    linalg.rref = counting
    try:
        result = fn()
    finally:
        linalg.rref = real
    return result, calls


def memo_active() -> bool:
    """Whether a subspaces.memoized() block is in force: then a repeated
    sum and meet of one pair eliminate once each, not twice."""
    F = GF.get(2)
    a, b = Subspace.line(F, (1, 0, 0)), Subspace.line(F, (0, 1, 0))
    return rref_calls(lambda: [op(a, b) for op in (sum_subspaces, intersect_subspaces) * 2])[1] < 4
