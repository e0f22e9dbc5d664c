"""Johnson-graph images in Grassmann graphs: construction, verification,
and classification.

Two lattice-dual constructions generate every image (Theorem 4 of the
source paper, PAPER.md): sums of m-subsets of a 2m-independent family
of (k-m+1)-spaces over a (k-m)-space (star side), and meets of m-subsets
of (k+m-1)-spaces under a (k+m)-space whose annihilators are
2m-independent (top side).  One builder, _subset_sums, joins subsets by
sums or by meets, so each side is built and classified in its own
lattice, and no image is annihilated.  The classifier descends through
the star centers (top covers) of the image to the generating family and
certifies it by rebuilding the image and comparing sets exactly.

Every clique of a Grassmann graph lies in a star or a top (Brouwer,
Cohen & Neumaier, *Distance-Regular Graphs*, 1989, section 9.3), and
every edge of J(l, m) lies in exactly one star and one top.  So no clique
is listed or typed.  A labeled input to classify tests one clique, the
Johnson star over the core {0..m-2}: it lands in a star exactly when its
members span more than k+1 dimensions, and by Theorem 4 every Johnson
star goes the same way.  A bare input reads (l, m) off its size and
valency; its adjacent pairs meet in its star centers and sum to its top
covers, and counting centers, then covers, tells where the Johnson stars land.

The pairwise isometry check (_first_defect, which verify_assignment
wraps) runs once per trust boundary: on a labeled input to classify, on
the labeled map rebuilt for a bare input to classify (against the
distance table the classifier already read), and on the map that the
build command writes.  Both constructions are one body,
build_construction, which rests on one 2m-independence certificate on
the side's points (side_points: star points, or annihilated top points)
and so proves the isometry; a stored classification, rebuilt through it
and classified, gets one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from .errors import ClassificationError, NotIsometricError, ValidationError
from .fields import GF
from .grassmannian import distance_rows
from .independence import m_dependency_witness
from .johnson import johnson_distance, johnson_vertices
from .subspaces import (Subspace, annihilator, frame, intersect_many, intersect_subspaces,
                        sum_many, sum_subspaces)


class EmbeddingInstance:
    """A total map from the vertices of J(l, m) into k-subspaces of F_q^n.

    Vertices are bitmasks over the ground set {0..l-1}.  Instances are
    immutable by convention; all verification is pairwise-exhaustive.
    """

    def __init__(self, l: int, m: int, assignment: dict[int, Subspace]):
        vertices = johnson_vertices(l, m)
        missing = [v for v in vertices if v not in assignment]
        if missing:
            raise ValidationError(f"assignment misses vertex {missing[0]:#x}")
        some = assignment[vertices[0]]
        self.field: GF = some.field
        self.n: int = some.ambient_dim
        self.k: int = some.dim
        for v in vertices:
            s = assignment[v]
            if s.field != self.field or s.ambient_dim != self.n:
                raise ValidationError("mixed ambients in assignment")
            if s.dim != self.k:
                raise ValidationError(f"vertex {v:#x} maps to dimension {s.dim}, not {self.k}")
        self.l = l
        self.m = m
        self.assignment = {v: assignment[v] for v in vertices}
        self.image: frozenset[Subspace] = frozenset(self.assignment.values())
        if len(self.image) != len(vertices):
            raise ValidationError("assignment is not injective")

    def normalized(self) -> "EmbeddingInstance":
        """Re-index through complementation so that m <= l - m."""
        if self.m <= self.l - self.m:
            return self
        full = (1 << self.l) - 1
        flipped = {full ^ v: s for v, s in self.assignment.items()}
        return EmbeddingInstance(self.l, self.l - self.m, flipped)


@dataclass(frozen=True)
class IsometryDefect:
    vertex_a: int
    vertex_b: int
    expected: int
    actual: int


def _first_defect(m: int, vertices, rows, at) -> IsometryDefect | None:
    """The first pair of vertices, in the given order, whose Johnson
    distance differs from their entry in the distance table rows; vertex
    i reads row and column at[i]."""
    for i, a in enumerate(vertices):
        row = rows[at[i]]
        for j in range(i + 1, len(vertices)):
            b = vertices[j]
            expected = johnson_distance(a, b, m)
            if expected != row[at[j]]:
                return IsometryDefect(a, b, expected, row[at[j]])
    return None


def verify_assignment(m: int, assignment: dict[int, Subspace]) -> IsometryDefect | None:
    """Pairwise isometry check on a raw vertex-to-subspace mapping; accepts
    non-injective maps (a collapse shows up as a distance defect)."""
    vs = list(assignment)
    return _first_defect(m, vs, distance_rows(assignment[v] for v in vs), range(len(vs)))


def _subset_sums(generators, m: int, join) -> list[dict[int, Subspace]]:
    """levels[t - 1] maps each t-subset of the generators, as a Johnson
    vertex, to the join of its members, for t = 1..m and the subsets in
    lexicographic order: sum_subspaces for star points, intersect_subspaces
    for top points.  Each join adds the subset's last generator to the
    previous level's join of the others."""
    levels = [{1 << i: g for i, g in enumerate(generators)}]
    for _ in range(1, m):
        levels.append({v | 1 << i: join(s, g) for v, s in levels[-1].items()
                       for i, g in enumerate(generators) if v >> i == 0})
    return levels


def check_construction_params(m: int, k: int, n: int):
    """Raise ValidationError unless both constructions accept m in G(n, k):
    1 < m <= min(k, n-k), the diameter of the Grassmann graph, which an
    isometric J(l, m) with l > m needs (Brouwer, Cohen & Neumaier, 9.3)."""
    if not 1 < m <= min(k, n - k):
        raise ValidationError(
            f"construction needs 1 < m <= min(k, n-k) = {min(k, n - k)}, got m={m}")


def side_points(generators, top: bool, space: Subspace | None = None):
    """A side's generators as points: star points are spaces one dimension
    over m_space, and the annihilators of top points, hyperplanes of
    n_space, are points over the annihilator of n_space.  Given space
    (m_space or n_space), the points' coordinate rows over that base in
    their frame (subspaces.frame) instead."""
    points = tuple(map(annihilator, generators)) if top else tuple(generators)
    return points if space is None else frame(annihilator(space) if top else space, points)[2]


def build_construction(space: Subspace, generators, k: int, top: bool) -> EmbeddingInstance:
    """Map each m-subset {i1..im} to the join of generators[i1..im] in the
    side's lattice: their sum over the (k-m)-space space (star side), or
    their meet under the (k+m)-space space (top side).

    m = k - dim(space), or dim(space) - k on the top side.  The generators
    are one dimension over the base, or hyperplanes of the cover, and
    their points (side_points) must be 2m-independent over their base.
    That certificate proves the isometry, so the map is not checked
    pairwise: for m-subsets u and v with union w, the |w| <= min(2m, l)
    points of w are independent over the base, so the star images X_u and
    X_v sum to a space of dimension dim(space) + |w|, and d(X_u, X_v) =
    |w| - m = m - |u & v|, the Johnson distance.  On the top side
    annihilation turns those sums into the meets, preserving distances.
    """
    sign = -1 if top else 1
    m = sign * (k - space.dim)
    check_construction_params(m, k, space.ambient_dim)
    generators = tuple(generators)
    l = len(generators)
    if l <= m:
        raise ValidationError(f"need more than m={m} generators, got {l}")
    for g in generators:
        if g.dim != space.dim + sign or not (space.contains(g) if top else g.contains(space)):
            raise ValidationError("generators must be " + ("hyperplanes of the cover space"
                                  if top else "one-dimensional extensions of the base space"))
    need = min(2 * m, l)
    witness = m_dependency_witness(space.field, side_points(generators, top, space), need)
    if witness is not None:
        raise ValidationError(
            f"generators are not {need}-independent over the base; "
            f"dependent subset at indices {witness}")
    return EmbeddingInstance(l, m, _subset_sums(generators, m, _lattice(top)[0])[-1])


# classification ---------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """The recovered description of a Johnson image.

    case "star": the sums of m star_points, (k-m+1)-spaces over m_space.
    case "top": the meets of m top_points, (k+m-1)-spaces under n_space.
    case "parabolic-apartment" (exactly when l == 2m): both descriptions
    hold and the image is an apartment of the interval [m_space, n_space].

    m_space and n_space are always the meet and join of the whole image.

    For a labeled input the generators keep the ground order of its
    complement-normalized instance (m <= l - m), with one exception: when
    l == 2m and Johnson stars land in tops, star_points[j] lies in every
    image of a vertex avoiding j.  A bare input has no labels to keep.
    See rebuild.
    """

    case: str
    l: int
    m: int
    k: int
    n: int
    field: GF
    m_space: Subspace
    n_space: Subspace
    star_points: tuple[Subspace, ...] | None
    top_points: tuple[Subspace, ...] | None
    is_full_apartment: bool
    image: frozenset[Subspace]
    labeled: dict[int, Subspace] = dc_field(compare=False, repr=False)

    def point_set(self, top: bool) -> tuple[tuple[int, ...], ...]:
        """One side's generators as coordinate rows over its base
        (side_points): the star points over m_space, or the annihilated
        top points over the annihilator of n_space."""
        points = self.top_points if top else self.star_points
        if points is None:
            raise ValidationError(f"no {'dual' if top else 'primal'} generators "
                                  f"on a {self.case}-type classification")
        return side_points(points, top, self.n_space if top else self.m_space)


def rebuild(cls: Classification) -> dict[int, Subspace]:
    """The labeled map that certified cls: for a labeled inst,
    rebuild(classify(inst)) equals inst.normalized().assignment."""
    return dict(cls.labeled)


def check_classification_params(l: int, m: int, k: int, n: int):
    """Raise ValidationError unless classify accepts J(l, m) in G(n, k)."""
    if n < 4 or l < 4:
        raise ValidationError(f"classification needs n >= 4 and l >= 4, got n={n}, l={l}")
    if not 1 < k < n - 1:
        raise ValidationError(f"classification needs 1 < k < n-1, got k={k}, n={n}")
    if not 1 < m < l - 1:
        raise ValidationError(f"classification needs 1 < m < l-1, got l={l}, m={m}")
    if min(m, l - m) > min(k, n - k):
        raise ValidationError(
            f"diameter obstruction: min(m, l-m)={min(m, l-m)} exceeds "
            f"min(k, n-k)={min(k, n - k)}")


def classify(obj, *, table=None) -> Classification:
    """Classify an embedding instance or a bare image set.

    Labeled instances are isometry-verified and complement-normalized
    first; that is their only isometry check.  Bare sets get their Johnson
    parameters from the size and valency of the induced graph, and the
    labeled map rebuilt from the recovered generators is checked against
    the input's distance table instead.  Either way the returned
    description is certified by an exact rebuild of the image.
    A caller holding that table passes it as table: row i, over members
    ordered by their RREF rows, lists the i-th one's distances.
    """
    if isinstance(obj, EmbeddingInstance):
        defect = verify_assignment(obj.m, obj.assignment)
        if defect is not None:
            raise NotIsometricError(defect)
        norm = obj.normalized()
        check_classification_params(norm.l, norm.m, norm.k, norm.n)
        # Theorem 4: Johnson stars all land in stars (case A) or all in tops
        # (case B), so the star over the core {0..m-2} decides the case: its
        # l-m+1 >= 3 members span more than k+1 dimensions only in a star.
        # The exact rebuild in _assemble implies every other clique's type
        core = (1 << (norm.m - 1)) - 1
        core_star = [norm.assignment[core | (1 << i)] for i in range(norm.m - 1, norm.l)]
        top = sum_many(norm.field, norm.n, core_star).dim <= norm.k + 1
        return _assemble(norm.image, _labeled_generators(norm, top),
                         norm.l, norm.m, norm.k, top)

    image = frozenset(obj)
    if not image:
        raise ValidationError("empty image")
    some = next(iter(image))
    field, n, k = some.field, some.ambient_dim, some.dim
    for s in image:
        if s.field != field or s.ambient_dim != n or s.dim != k:
            raise ValidationError("image members live in different Grassmannians")
    return _classify_bare(image, n, k, table)


def _lattice(top: bool):
    """(join, join_many, meet, meet_many) of one side's lattice: sums and
    meets of subspaces on the star side, the other way round on the top
    side, whose images are the order duals of star-type ones."""
    ops = (sum_subspaces, sum_many, intersect_subspaces, intersect_many)
    return ops[2:] + ops[:2] if top else ops


# -- labeled path --------------------------------------------------------


def _labeled_generators(inst: EmbeddingInstance, top: bool) -> tuple[Subspace, ...]:
    """Ground-indexed generators: generator j is the meet (star side) or
    the sum (top side) of every image through j."""
    meet_many = _lattice(top)[3]
    dim = inst.k + inst.m - 1 if top else inst.k - inst.m + 1
    out = []
    for j in range(inst.l):
        members = [s for v, s in inst.assignment.items() if v >> j & 1]
        generator = meet_many(inst.field, inst.n, members)
        if generator.dim != dim:
            raise ClassificationError(
                f"generator recovery failed at ground index {j} "
                f"(dimension {generator.dim}, expected {dim})")
        out.append(generator)
    return tuple(out)


# -- bare path -----------------------------------------------------------


def _adjacent_pairs(members, rows) -> list[tuple[Subspace, Subspace]]:
    """The pairs of members at distance 1 in their distance table rows."""
    return [(a, members[j]) for i, a in enumerate(members)
            for j in range(i + 1, len(members)) if rows[i][j] == 1]


def _johnson_parameters(count: int, valency: int) -> tuple[int, int]:
    """The (l, m) with 1 < m <= l/2 for which J(l, m) has count vertices
    of valency m(l - m); no two such graphs with l < 400 share both."""
    # m <= l - m, so m * m <= m(l - m)
    for m in range(2, math.isqrt(valency) + 1):
        rest, remainder = divmod(valency, m)
        if remainder == 0 and math.comb(m + rest, m) == count:
            return m + rest, m
    raise ClassificationError(
        f"no J(l, m) with 1 < m <= l/2 has {count} vertices of valency {valency}")


def _classify_bare(image: frozenset[Subspace], n: int, k: int, table) -> Classification:
    """Classify an unlabeled image from the distance table of its members."""
    members = sorted(image, key=lambda s: s.rows)
    table = table or distance_rows(members)
    valencies = {row.count(1) for row in table}
    if len(valencies) != 1:
        raise ClassificationError("the induced graph is not regular")
    l, m = _johnson_parameters(len(members), valencies.pop())
    check_classification_params(l, m, k, n)
    edges = _adjacent_pairs(members, table)
    # each edge lies in one Johnson star and one Johnson top: its meet is the
    # center of a Grassmann star and its sum the cover of a Grassmann top.
    # C(l, m-1) centers means the Johnson stars land in stars; otherwise, when
    # l != 2m, C(l, m-1) covers means they land in tops, where the covers take
    # the part of the centers.  By Theorem 4 the two are exclusive for
    # l != 2m, so the sums are formed only for a top-type image.
    centers = {intersect_subspaces(a, b) for a, b in edges}
    covers = ({sum_subspaces(a, b) for a, b in edges}
              if l != 2 * m and len(centers) != math.comb(l, m - 1) else set())
    top = len(covers) == math.comb(l, m - 1)
    centers = covers if top else centers
    cls = _assemble(image, _descend_bare(centers, l, m, top), l, m, k, top)
    labeled = cls.labeled
    vertices = list(labeled)
    row_of = {s: i for i, s in enumerate(members)}
    defect = _first_defect(m, vertices, table, [row_of[labeled[v]] for v in vertices])
    if defect is not None:
        raise NotIsometricError(defect)
    return cls


def _descend_bare(centers, l: int, m: int, top: bool) -> tuple[Subspace, ...]:
    """Walk from the star centers of the image (its top covers on the top
    side) down to the generators, label-free: level t holds the C(l, t)
    joins of t generators, and the meets of its adjacent pairs (their sums
    on the top side) are level t - 1."""
    meet = _lattice(top)[2]
    for level in range(m - 1, 0, -1):
        if len(centers) != math.comb(l, level):
            raise ClassificationError(
                f"level {level} has {len(centers)} star centers, "
                f"expected {math.comb(l, level)}")
        family = sorted(centers, key=lambda s: s.rows)
        if level > 1:
            centers = {meet(a, b) for a, b in _adjacent_pairs(family, distance_rows(family))}
    return tuple(family)


# -- shared tail ---------------------------------------------------------


def _assemble(image, generators: tuple[Subspace, ...], l: int, m: int, k: int,
              top: bool) -> Classification:
    """Certify generators of one side by rebuilding the image from them:
    star points share the (k-m)-space m_space and span n_space, top
    points span the (k+m)-space n_space and meet in m_space."""
    join, join_many, _, meet_many = _lattice(top)
    sign = -1 if top else 1
    field, n = generators[0].field, generators[0].ambient_dim
    base = meet_many(field, n, generators)
    if base.dim != k - sign * m:
        raise ClassificationError(
            f"generators have a {base.dim}-dimensional base, expected {k - sign * m}")
    span = join_many(field, n, generators)
    if not m <= sign * (span.dim - k) <= l - m:
        raise ClassificationError(f"generators span dimension {span.dim}, outside "
                                  f"{sorted((k + sign * m, k + sign * (l - m)))}")
    levels = _subset_sums(generators, m, join)
    if frozenset(levels[-1].values()) != image:
        raise ClassificationError("rebuilt image differs from the input image")
    others = None
    case = "top" if top else "star"
    if l == 2 * m:
        # the join of all generators but j is one join of two sums that
        # levels holds: m of the others and the remaining m - 1
        rests = [[1 << i for i in range(l) if i != j] for j in range(l)]
        others = tuple(join(levels[m - 1][sum(rest[:m])], levels[m - 2][sum(rest[m:])])
                       for rest in rests)
        case = "parabolic-apartment"
    star_points, top_points = (others, generators) if top else (generators, others)
    m_space, n_space = (span, base) if top else (base, span)
    full = (l == n and m_space.dim == 0 and n_space.dim == n)
    return Classification(case, l, m, k, n, field, m_space, n_space, star_points,
                          top_points, full, frozenset(image), levels[-1])
