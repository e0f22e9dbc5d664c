"""Johnson-graph images in Grassmann graphs: construction, verification,
and classification.

Two constructions generate every image: sums of m-element subsets of a
2m-independent family of (k-m+1)-spaces over a fixed (k-m)-space, and the
annihilator-dual intersections of (k+m-1)-spaces under a fixed
(k+m)-space.  The classifier inverts either construction by descending
through the star cliques of the image, recovers the generating family,
and certifies the answer by rebuilding the image from it and comparing
sets exactly.

One routine, _clique_kind, types a clique of the image as a star or a
top without re-testing adjacency.  A labeled input to classify types one
clique, the Johnson star over the core {0..m-2}: by Theorem 4 of the
source paper (PAPER.md) every Johnson star goes the same way, and the
exact rebuild implies the type of every other clique.  A bare input
types each clique that Bron-Kerbosch finds, at every level of the
descent.

The pairwise isometry check (verify_assignment) runs once per trust
boundary: on a labeled input to classify, on the labeled map rebuilt for
a bare input to classify, and on the output of build_sum_construction.
Annihilation maps the Grassmann graph of k-spaces onto that of
(n-k)-spaces preserving every distance, so the dual construction and the
top-type classification, both carried across by annihilators, are not
checked again.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import (ClassificationError, InternalInvariantError, NotIsometricError,
                     ValidationError)
from .fields import GF
from .grassmannian import distance
from .independence import Ambient, PointSet, m_dependency_witness
from .johnson import johnson_distance, johnson_vertices, vertex_from_indices
from .subspaces import (Subspace, annihilator, intersect_many, intersect_subspaces,
                        quotient_coords, sum_many, sum_subspaces)


class EmbeddingInstance:
    """A total map from the vertices of J(l, m) into k-subspaces of F_q^n.

    Vertices are bitmasks over the ground set {0..l-1}.  Instances are
    immutable by convention; all verification is pairwise-exhaustive.
    """

    def __init__(self, l: int, m: int, assignment: dict[int, Subspace]):
        if not 0 < m < l:
            raise ValidationError(f"need 0 < m < l, got l={l}, m={m}")
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

    @property
    def m_prime(self) -> int:
        return min(self.m, self.l - self.m)

    def vertices(self) -> list[int]:
        return list(self.assignment)

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


def verify_assignment(m: int, assignment: dict[int, Subspace]) -> IsometryDefect | None:
    """Pairwise isometry check on a raw vertex-to-subspace mapping; accepts
    non-injective maps (a collapse shows up as a distance defect)."""
    vs = list(assignment)
    for i, a in enumerate(vs):
        sa = assignment[a]
        for b in vs[i + 1:]:
            expected = johnson_distance(a, b, m)
            actual = distance(sa, assignment[b])
            if expected != actual:
                return IsometryDefect(a, b, expected, actual)
    return None


def _require_isometric(m: int, assignment: dict[int, Subspace]):
    defect = verify_assignment(m, assignment)
    if defect is not None:
        raise NotIsometricError(defect)


def _subset_sums(generators, m: int) -> dict[int, Subspace]:
    """Map each m-subset of the generators, as a Johnson vertex, to its sum."""
    field, n = generators[0].field, generators[0].ambient_dim
    return {vertex_from_indices(combo): sum_many(field, n, (generators[i] for i in combo))
            for combo in itertools.combinations(range(len(generators)), m)}


def _quotient_point_set(m_space: Subspace, generators) -> PointSet:
    F = m_space.field
    dim = m_space.ambient_dim - m_space.dim
    points = []
    for g in generators:
        rows = quotient_coords(m_space, g)
        if len(rows) != 1:
            raise ValidationError("generator is not one-dimensional over the base space")
        points.append(Subspace(F, dim, rows))
    return PointSet(Ambient("primal", F, dim), tuple(points))


def build_sum_construction(m_space: Subspace, generators, k: int) -> EmbeddingInstance:
    """Map each m-subset {i1..im} to generators[i1] + ... + generators[im].

    generators must be (k-m+1)-spaces over m_space whose images in the
    quotient are 2m-independent, with m = k - dim(m_space) > 1 and
    m + k <= n.  The result is isometry-verified before it is returned.
    """
    n = m_space.ambient_dim
    m = k - m_space.dim
    generators = tuple(generators)
    l = len(generators)
    if m < 2:
        raise ValidationError(f"sum construction needs k - dim(base) >= 2, got {m}")
    if m + k > n:
        raise ValidationError(f"sum construction needs m + k <= n ({m}+{k} > {n})")
    if l <= m:
        raise ValidationError(f"need more than m={m} generators, got {l}")
    for g in generators:
        if g.dim != m_space.dim + 1 or not g.contains(m_space):
            raise ValidationError(
                "generators must be one-dimensional extensions of the base space")
    points = _quotient_point_set(m_space, generators)
    need = min(2 * m, l)
    witness = m_dependency_witness(points, need)
    if witness is not None:
        raise ValidationError(
            f"generators are not {need}-independent over the base; "
            f"dependent subset at indices {witness}")
    inst = EmbeddingInstance(l, m, _subset_sums(generators, m))
    _require_isometric(m, inst.assignment)
    return inst


def build_dual_construction(n_space: Subspace, generators, k: int) -> EmbeddingInstance:
    """Map each m-subset {i1..im} to generators[i1] & ... & generators[im].

    generators must be hyperplanes of n_space (dimension k+m-1) forming a
    2m-independent family of the dual space of n_space, with
    m = dim(n_space) - k satisfying 1 < m <= k.  Computed by annihilator
    transport of the sum construction, whose isometry check covers the
    result: annihilation preserves every distance.
    """
    n = n_space.ambient_dim
    m = n_space.dim - k
    generators = tuple(generators)
    if m < 2:
        raise ValidationError(f"dual construction needs dim(cover) - k >= 2, got {m}")
    if m > k:
        raise ValidationError(f"dual construction needs m <= k ({m} > {k})")
    for g in generators:
        if g.dim != n_space.dim - 1 or not n_space.contains(g):
            raise ValidationError("generators must be hyperplanes of the cover space")
    dual_base = annihilator(n_space)
    dual_generators = tuple(annihilator(g) for g in generators)
    primal = build_sum_construction(dual_base, dual_generators, n - k)
    return EmbeddingInstance(primal.l, m,
                             {v: annihilator(s) for v, s in primal.assignment.items()})


# clique typing ---------------------------------------------------------


def _clique_kind(members) -> tuple[str, Subspace]:
    """Type a clique of k-spaces the caller already knows to be pairwise
    adjacent: ("star", center) when they share a (k-1)-space, ("top",
    cover) when they span a (k+1)-space.  Both hold exactly when the
    clique lies in a line, which no maximal clique of an isometric image of
    J(l, m) with 1 < m < l-1 does; that raises ClassificationError.

    Any two members meet in the only possible center and span the only
    possible cover, so the rest are tested by containment alone; no
    distance is computed.
    """
    if len(members) < 2:
        raise ClassificationError("a maximal clique of the image has a single member")
    a, b, *rest = members
    center, cover = intersect_subspaces(a, b), sum_subspaces(a, b)
    is_star = all(s.contains(center) for s in rest)
    is_top = all(cover.contains(s) for s in rest)
    if is_star and is_top:
        raise ClassificationError(
            "a maximal clique of the image lies in a line of the Grassmann graph; "
            "the input cannot be an isometric Johnson image")
    if is_star:
        return "star", center
    if is_top:
        return "top", cover
    raise InternalInvariantError("adjacent family contained in no maximal clique")


# classification ---------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """The recovered description of a Johnson image.

    case "star": generated by star_points, (k-m+1)-spaces over m_space.
    case "top": generated by top_points, (k+m-1)-spaces under n_space.
    case "parabolic-apartment" (exactly when l == 2m): both descriptions
    hold and the image is an apartment of the interval [m_space, n_space].

    m_space and n_space are always the meet and join of the whole image.
    descent_trace[i] collects the recovered level sets, ending at the
    image itself.

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
    descent_trace: tuple[frozenset[Subspace], ...]
    image: frozenset[Subspace]

    def star_point_set(self) -> PointSet:
        if self.star_points is None:
            raise ValidationError("no primal generators on a top-type classification")
        return _quotient_point_set(self.m_space, self.star_points)

    def top_point_set(self) -> PointSet:
        """The dual generators as points over the annihilator of n_space."""
        if self.top_points is None:
            raise ValidationError("no dual generators on a star-type classification")
        base = annihilator(self.n_space)
        points = _quotient_point_set(base, tuple(annihilator(y) for y in self.top_points))
        return PointSet(Ambient("dual", points.ambient.field, points.ambient.dim),
                        points.points)

    @functools.cached_property
    def _labeled_map(self) -> dict[int, Subspace]:
        """The map :func:`rebuild` returns, computed on first use."""
        if self.star_points is not None:
            return _subset_sums(self.star_points, self.m)
        sums = _subset_sums(tuple(annihilator(t) for t in self.top_points), self.m)
        return {v: annihilator(s) for v, s in sums.items()}


def rebuild(cls: Classification) -> dict[int, Subspace]:
    """Reconstruct the labeled map from the recovered generators: each
    m-subset goes to the sum of its star points or, on a top-type
    classification, to the meet of its top points (the annihilator of the
    sum of their annihilators).  Its values are exactly cls.image; the map
    is not re-verified, since classify already checked it or its input.
    It is computed once per classification and memoized on it.

    For a labeled inst, rebuild(classify(inst)) equals the map of
    inst.normalized() on star-type and top-type images and on a J(2m, m)
    image whose Johnson stars land in stars.  On a J(2m, m) image whose
    Johnson stars land in tops it is that map after complementation:
    vertex v goes to the input's image of the complement of v.
    """
    return dict(cls._labeled_map)


def _check_classification_params(l: int, m: int, k: int, n: int):
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


def classify(obj) -> Classification:
    """Classify an embedding instance or a bare image set.

    Labeled instances are isometry-verified and complement-normalized
    first; that is their only isometry check.  Bare sets get their Johnson
    parameters inferred from the maximal-clique structure of the induced
    graph, and the labeled map rebuilt from the recovered generators is
    checked instead.  Either way the returned description is certified by
    an exact rebuild of the image.
    """
    if isinstance(obj, EmbeddingInstance):
        _require_isometric(obj.m, obj.assignment)
        norm = obj.normalized()
        _check_classification_params(norm.l, norm.m, norm.k, norm.n)
        # Theorem 4: Johnson stars all land in stars (case A) or all in tops
        # (case B), so the star over the core {0..m-2} decides the case; the
        # exact rebuild in _assemble_primal implies every other clique's type
        core = (1 << (norm.m - 1)) - 1
        kind, _ = _clique_kind([norm.assignment[core | (1 << i)]
                                for i in range(norm.m - 1, norm.l)])
        if kind == "star":
            ordered = _labeled_generators_primal(norm)
            return _assemble_primal(norm.image, ordered, norm.l, norm.m, norm.k)
        dual = EmbeddingInstance(
            norm.l, norm.m, {v: annihilator(s) for v, s in norm.assignment.items()})
        ordered = _labeled_generators_primal(dual)
        dual_cls = _assemble_primal(dual.image, ordered, dual.l, dual.m, dual.k)
        return _transport_to_top(dual_cls)

    image = frozenset(obj)
    if not image:
        raise ValidationError("empty image")
    some = next(iter(image))
    field, n, k = some.field, some.ambient_dim, some.dim
    for s in image:
        if s.field != field or s.ambient_dim != n or s.dim != k:
            raise ValidationError("image members live in different Grassmannians")
    return _classify_bare(image, field, n, k)


# -- labeled path --------------------------------------------------------


def _labeled_generators_primal(inst: EmbeddingInstance) -> tuple[Subspace, ...]:
    """Ground-indexed generators: T_j is the meet of every image through j."""
    out = []
    for j in range(inst.l):
        members = [s for v, s in inst.assignment.items() if v >> j & 1]
        meet = intersect_many(inst.field, inst.n, members)
        if meet.dim != inst.k - inst.m + 1:
            raise ClassificationError(
                f"generator recovery failed at ground index {j} "
                f"(dimension {meet.dim}, expected {inst.k - inst.m + 1})")
        out.append(meet)
    return tuple(out)


# -- bare path -----------------------------------------------------------


def _maximal_cliques(spaces) -> list[frozenset]:
    """Bron-Kerbosch with pivoting over the Grassmann-graph adjacency of
    the given spaces, taken in the order of their RREF rows."""
    items = sorted(spaces, key=lambda s: s.rows)
    n = len(items)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if distance(items[i], items[j]) == 1:
                adj[i].add(j)
                adj[j].add(i)
    cliques: list[frozenset] = []

    def bk(r: set[int], p: set[int], x: set[int]):
        if not p and not x:
            cliques.append(frozenset(items[i] for i in r))
            return
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in sorted(p - adj[pivot]):
            bk(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    bk(set(), set(range(n)), set())
    return cliques


def _infer_parameters(image: frozenset[Subspace], cliques: list[frozenset]) -> tuple[int, int]:
    sizes = sorted({len(c) for c in cliques})
    if len(sizes) == 1:
        if sizes[0] == len(image):
            raise ClassificationError(
                "induced graph is complete; Johnson parameters with 1 < m < l-1 "
                "cannot produce it")
        m = sizes[0] - 1
        l = 2 * m
    elif len(sizes) == 2:
        m = sizes[0] - 1
        l = sizes[0] + sizes[1] - 2
    else:
        raise ClassificationError(f"unexpected clique sizes {sizes} in the induced graph")
    if not 1 < m < l - 1:
        raise ClassificationError(f"inferred parameters l={l}, m={m} are out of range")
    if math.comb(l, m) != len(image):
        raise ClassificationError(
            f"image has {len(image)} members but J({l},{m}) needs {math.comb(l, m)}")
    return l, m


def _classify_bare(image: frozenset[Subspace], field: GF, n: int, k: int,
                   cliques: list[frozenset] | None = None) -> Classification:
    """Classify an unlabeled image; cliques, when given, are its maximal
    cliques."""
    if cliques is None:
        cliques = _maximal_cliques(image)
    l, m = _infer_parameters(image, cliques)
    _check_classification_params(l, m, k, n)
    typed = [(members, _clique_kind(members)) for members in cliques]
    big = max(len(c) for c, _ in typed)
    big_kinds = {kind for c, (kind, _) in typed if len(c) == big}
    small_kinds = {kind for c, (kind, _) in typed if len(c) < big}
    if l != 2 * m:
        if len(big_kinds) != 1 or len(small_kinds) > 1 or small_kinds == big_kinds:
            raise ClassificationError("inconsistent clique typing across the image")
        case = "A" if big_kinds == {"star"} else "B"
    else:
        if big_kinds != {"star", "top"}:
            raise ClassificationError("an apartment-like image must carry both clique kinds")
        case = "A"
    if case == "B":
        # annihilation preserves adjacency, so it carries the maximal
        # cliques over to the annihilated image
        dual = {s: annihilator(s) for s in image}
        dual_cliques = [frozenset(dual[s] for s in c) for c in cliques]
        dual_cls = _classify_bare(frozenset(dual.values()), field, n, n - k, dual_cliques)
        if dual_cls.case == "top":
            raise InternalInvariantError("dual image classified as top-type")
        return _transport_to_top(dual_cls)

    generators = _descend_bare(image, field, n, k, l, m, typed)
    cls = _assemble_primal(image, generators, l, m, k)
    _require_isometric(m, rebuild(cls))
    return cls


def _descend_bare(image, field, n, k, l, m, typed_cliques) -> tuple[Subspace, ...]:
    """Walk star cliques down to the generator level, label-free."""
    current = image
    cur_k = k
    level = m
    typed = typed_cliques
    while level > 1:
        star_meets = {center for _, (kind, center) in typed if kind == "star"}
        if len(star_meets) != math.comb(l, level - 1):
            raise ClassificationError(
                f"level {level} has {len(star_meets)} star cliques, "
                f"expected {math.comb(l, level - 1)}")
        current = frozenset(star_meets)
        cur_k -= 1
        level -= 1
        if level > 1:
            typed = [(members, _clique_kind(members)) for members in _maximal_cliques(current)]
    if len(current) != l:
        raise ClassificationError(f"recovered {len(current)} generators, expected {l}")
    return tuple(sorted(current, key=lambda s: s.rows))


# -- shared tail ---------------------------------------------------------


def _assemble_primal(image, generators: tuple[Subspace, ...], l: int, m: int,
                     k: int) -> Classification:
    field = generators[0].field
    n = generators[0].ambient_dim
    m_space = intersect_many(field, n, generators)
    if m_space.dim != k - m:
        raise ClassificationError(
            f"generators share a {m_space.dim}-space, expected {k - m}")
    n_space = sum_many(field, n, generators)
    if not k + m <= n_space.dim <= k - m + l:
        raise ClassificationError(
            f"span of generators has dimension {n_space.dim}, "
            f"outside [{k + m}, {k - m + l}]")
    trace = tuple(frozenset(_subset_sums(generators, level).values())
                  for level in range(1, m + 1))
    if trace[-1] != image:
        raise ClassificationError("rebuilt image differs from the input image")
    if l == 2 * m:
        if n_space.dim != k + m:
            raise InternalInvariantError("apartment span has the wrong dimension")
        cofaces = _subset_sums(generators, l - 1)
        full_set = (1 << l) - 1
        top_points = tuple(cofaces[full_set ^ (1 << j)] for j in range(l))
        case = "parabolic-apartment"
    else:
        top_points = None
        case = "star"
    full = (l == n and m_space.dim == 0 and n_space.dim == n)
    return Classification(case, l, m, k, n, field, m_space, n_space,
                          generators, top_points, full, trace, frozenset(image))


def _transport_to_top(dual_cls: Classification) -> Classification:
    """Carry a star-type description of the annihilated image back to the
    primal side, where it becomes a top-type description.  The annihilator
    is an exact involution, so the certified dual rebuild certifies this
    one too."""
    field, n = dual_cls.field, dual_cls.n
    k = n - dual_cls.k
    l, m = dual_cls.l, dual_cls.m
    n_space = annihilator(dual_cls.m_space)
    m_space = annihilator(dual_cls.n_space)
    top_points = tuple(annihilator(t) for t in dual_cls.star_points)
    image = frozenset(annihilator(s) for s in dual_cls.image)
    star_points = (tuple(annihilator(t) for t in dual_cls.top_points)
                   if dual_cls.top_points is not None else None)
    trace = tuple(frozenset(annihilator(s) for s in level)
                  for level in dual_cls.descent_trace)
    case = "parabolic-apartment" if l == 2 * m else "top"
    full = (l == n and m_space.dim == 0 and n_space.dim == n)
    return Classification(case, l, m, k, n, field, m_space, n_space,
                          star_points, top_points, full, trace, image)


# additional predicates --------------------------------------------------


def clique_independence(image) -> bool:
    """Whether every maximal clique of the induced graph is an independent
    family: star members must be independent points of the quotient over
    the clique's center, top members independent hyperplanes of its cover."""
    members_list = sorted(frozenset(image), key=lambda s: s.rows)
    if not members_list:
        raise ValidationError("empty image")
    field = members_list[0].field
    n = members_list[0].ambient_dim
    k = members_list[0].dim
    for clique in _maximal_cliques(members_list):
        if len(clique) < 2:
            return False
        if not 1 < k < n - 1:
            raise ValidationError("maximal-clique structure requires 1 < k < n-1")
        try:
            kind, space = _clique_kind(clique)
        except ClassificationError:
            # a line, where both kinds agree: two members are independent
            # points over their meet and hyperplanes of their join, three are not
            if len(clique) > 2:
                return False
            continue
        if kind == "star":
            ok = sum_many(field, n, clique).dim == space.dim + len(clique)
        else:
            ok = intersect_many(field, n, clique).dim == space.dim - len(clique)
        if not ok:
            return False
    return True
