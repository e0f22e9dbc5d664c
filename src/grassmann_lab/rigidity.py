"""Rigidity of Johnson images: which automorphisms of the induced graph
extend to automorphisms of the ambient Grassmann graph.

Automorphisms of the Grassmann graph are exactly those induced by
semilinear automorphisms of V, plus the dualities through V* that exist
only when n = 2k.  So every generator of Aut J(l, m) asks whether some
semilinear map sends these points over M onto those points over M', and
by the fundamental theorem of projective geometry a frame of the points
answers that exactly, one Frobenius twist at a time.  Witnesses are never
trusted from the solver; every one is re-verified on the whole image.

The generators of one image share its per-image data: the meet of the
sources, their frame, the annihilated top points and the inverse of the
completed source basis.  Inside a subspaces.memoized() block, as the CLI
runs every command, each is computed once per image, not once per
generator; the verification on the whole image still runs per generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import linalg
from .embeddings import Classification, classify, rebuild, side_points
from .errors import InternalInvariantError, ValidationError
from .fields import GF
from .independence import is_independent, simplex_rank
from .johnson import JohnsonAut, johnson_aut_group
from .linalg import frobenius_vec
from .subspaces import (SemilinearMap, annihilator, contragredient, frame, intersect_many,
                        memo)

_NO_SEMILINEAR = "no invertible semilinear solution for any field automorphism"


@dataclass(frozen=True)
class SigmaDiagnostics:
    """One solver record: the Frobenius twist sigma tried, or None for a
    failure that holds for every twist; kind None on success, else "span"
    (the meets or spans differ in dimension), "basis" (the greedy bases of
    the points differ), "support" (a point's coordinates in them differ in
    support) or "ratio" (the scalings around a cycle disagree); the point
    where it failed; and searched, the number of points propagated."""

    sigma: int | None
    kind: str | None
    point: int | None
    searched: int


@dataclass(frozen=True)
class ExtensionWitness:
    kind: str  # "semilinear", or "duality": map read as V -> V*
    map: SemilinearMap


@dataclass(frozen=True)
class NotExtendable:
    reason: str
    diagnostics: tuple[SigmaDiagnostics, ...] = ()


# the solver -----------------------------------------------------------------


def _propagate(F: GF, t: int, supports, coords, coords_image):
    """Scalings lambda_i of the basis points with sigma_t(a_ji) lambda_i =
    mu_j c_ji for every point j and i in its support, one component after
    another, the first lambda of each set to 1.  Returns (lambdas, None,
    searched), or (None, j, searched) when point j closes a cycle whose
    scalings disagree; searched counts the points propagated."""
    scale = [0] * (len(coords[0]) if coords else 0)
    todo = [j for j, support in enumerate(supports) if support]
    searched = 0
    while todo:
        # a point touching a fixed scaling, while the component has one left
        j = next((j for j in todo if any(scale[i] for i in supports[j])), todo[0])
        todo.remove(j)
        searched += 1
        a, c = coords[j], coords_image[j]
        i = next((i for i in supports[j] if scale[i]), supports[j][0])
        scale[i] = scale[i] or 1
        mu = F.mul(F.mul(F.frobenius(a[i], t), scale[i]), F.inv(c[i]))
        for b in supports[j]:
            want = F.mul(F.mul(mu, c[b]), F.inv(F.frobenius(a[b], t)))
            if scale[b] and scale[b] != want:
                return None, j, searched
            scale[b] = want
    return scale, None, searched


def _completed(F: GF, d: int, rows) -> linalg.Matrix:
    """rows, then the standard basis vectors at the non-pivot columns of
    their span: a basis of F^d when rows are independent."""
    pivots = linalg.rref(F, rows)[2]
    eye = linalg.identity(d)
    return rows + tuple(eye[c] for c in range(d) if c not in pivots)


@memo
def _source_inverse(F: GF, d: int, source) -> linalg.Matrix:
    return linalg.inverse(F, _completed(F, d, source))


def _map_sending(F: GF, d: int, source, image, t: int) -> SemilinearMap:
    """The semilinear map with twist t sending source[i] to image[i], and
    the standard complement of the span of source (the standard basis
    vectors at the non-pivot columns) onto that of image."""
    twisted = tuple(frobenius_vec(F, row, t) for row in _source_inverse(F, d, source))
    return SemilinearMap(F, linalg.matmul(F, twisted, _completed(F, d, image)), t)


def solve_semilinear_mapping(F: GF, d: int, pairs
                             ) -> tuple[SemilinearMap | None, tuple[SigmaDiagnostics, ...], bool]:
    """Find an invertible semilinear map of F^d sending each source onto
    its target, or prove that there is none.

    The pairs must be point-like: each source is M + <v_j> (or M) for M
    the meet of the sources, each target M' + <w_j> for M' that of the
    targets.  A map needs the same greedy basis B of the points on both
    sides and coordinates a_j of v_j and c_j of w_j in B of one support;
    per twist sigma it exists exactly when scalings with sigma(a_jb)
    lambda_b = mu_j c_jb agree around every cycle; it sends M's rows to
    M''s, v_b to lambda_b w_b, and the standard complement of the span of
    the sources onto that of the targets.

    Returns (map or None, records, resolved): one SigmaDiagnostics per
    twist tried, or one with sigma None for a failure that holds for every
    twist; resolved is always True, the answer being exact.
    """
    if any(src.dim != dst.dim for src, dst in pairs):
        raise ValidationError("each source must have the dimension of its target")
    sources, targets = tuple(src for src, _ in pairs), tuple(dst for _, dst in pairs)
    meet = intersect_many(F, d, sources)
    # targets permuting the sources (every ground transposition's) share their meet
    meet_image = meet if set(targets) == set(sources) else intersect_many(F, d, targets)
    if meet.dim != meet_image.dim:
        return None, (SigmaDiagnostics(None, "span", None, 0),), True
    reps, basis, coords = frame(meet, sources)
    reps_image, basis_image, coords_image = frame(meet_image, targets)
    if basis != basis_image:
        kind = "basis" if len(basis) == len(basis_image) else "span"
        return None, (SigmaDiagnostics(None, kind, min(set(basis) ^ set(basis_image)), 0),), True
    supports = [tuple(i for i, x in enumerate(a) if x) for a in coords]
    for j, c in enumerate(coords_image):
        if tuple(i for i, x in enumerate(c) if x) != supports[j]:
            return None, (SigmaDiagnostics(None, "support", j, 0),), True
    records = []
    for t in F.automorphisms():
        scale, point, searched = _propagate(F, t, supports, coords, coords_image)
        records.append(SigmaDiagnostics(t, None if scale is not None else "ratio", point,
                                        searched))
        if scale is not None:
            source = meet.rows + tuple(reps[b] for b in basis)
            image = meet_image.rows + tuple(linalg.vec_scale(F, s, reps_image[b])
                                            for s, b in zip(scale, basis))
            return _map_sending(F, d, source, image, t), tuple(records), True
    return None, tuple(records), True


# point-level extension ----------------------------------------------------


def induced_by_semilinear(points, perm) -> ExtensionWitness | NotExtendable:
    """Decide whether some semilinear automorphism realizes the permutation
    on the given projective points, 1-dimensional subspaces, i.e. maps
    point i onto point perm[i].

    The witness acts on the span of the points and sends its standard
    complement onto itself.  A returned witness is re-verified pointwise.
    """
    pts = list(points)
    if not pts:
        raise ValidationError("empty point family")
    perm = tuple(perm)
    if sorted(perm) != list(range(len(pts))):
        raise ValidationError("perm is not a permutation of the point indices")
    F = pts[0].field
    pairs = [(p, pts[j]) for p, j in zip(pts, perm)]
    witness_map, diagnostics, _ = solve_semilinear_mapping(F, pts[0].ambient_dim, pairs)
    if witness_map is None:
        return NotExtendable(_NO_SEMILINEAR, diagnostics)
    for i, p in enumerate(pts):
        if witness_map.apply(p) != pts[perm[i]]:
            raise InternalInvariantError("solver produced a map that fails on the points")
    return ExtensionWitness("semilinear", witness_map)


# embedding-level extension -------------------------------------------------


def _verify_on_image(cls: Classification, aut: JohnsonAut, action) -> None:
    assignment = rebuild(cls)
    for vertex, space in assignment.items():
        if action(space) != assignment[aut.apply(vertex)]:
            raise InternalInvariantError("witness fails to realize the automorphism")


def extend_automorphism(subject, aut: JohnsonAut) -> ExtensionWitness | NotExtendable:
    """Extend one automorphism of the image graph to the Grassmann graph.

    Every generator is one solver call on point-like pairs.  A permutation
    sends star point j onto star point perm[j]; on a top-type image it
    sends annihilated top point j onto annihilated top point perm[j], and
    the witness is the contragredient of the solved map.  The complement,
    legal only when l == 2m, sends star point j onto annihilated top point
    perm[j]: a duality V -> V*, which exists only when n == 2k.
    """
    cls = subject if isinstance(subject, Classification) else classify(subject)
    if aut.l != cls.l:
        raise ValidationError(f"automorphism acts on {aut.l} symbols, image has {cls.l}")
    F, perm, top = cls.field, aut.perm, cls.star_points is None
    if aut.complement:
        if cls.l != 2 * cls.m:
            raise ValidationError("complement automorphism exists only when l = 2m")
        if cls.n != 2 * cls.k:
            # the meets m_space and annihilator(n_space) differ in dimension
            return NotExtendable(
                "complement requires a duality of the Grassmann graph, "
                "which exists only when n = 2k", (SigmaDiagnostics(None, "span", None, 0),))
        sources, targets = cls.star_points, side_points(cls.top_points, True)
        reason = "no duality realizes the complement automorphism"
    else:
        sources = side_points(cls.top_points if top else cls.star_points, top)
        targets, reason = sources, _NO_SEMILINEAR
    pairs = [(sources[j], targets[perm[j]]) for j in range(cls.l)]
    smap, diagnostics, _ = solve_semilinear_mapping(F, cls.n, pairs)
    if smap is None:
        return NotExtendable(reason, diagnostics)
    if aut.complement:
        _verify_on_image(cls, aut, lambda s: annihilator(smap.apply(s)))
        return ExtensionWitness("duality", smap)
    full = contragredient(smap) if top else smap
    _verify_on_image(cls, aut, full.apply)
    return ExtensionWitness("semilinear", full)


# the rigidity verdict -------------------------------------------------------


@dataclass(frozen=True)
class RigidityReport:
    """Outcome of testing every generator of Aut of the image graph:
    is_rigid is True when every generator extends, else False."""

    is_rigid: bool
    per_automorphism: tuple[tuple[JohnsonAut, object], ...]
    rigidity_case: str
    unique_pgl_extension: bool
    classification: Classification = dc_field(repr=False)


def _structure_case(cls: Classification) -> str:
    if cls.l == 2 * cls.m:
        return "parabolic-apartment"
    rows = cls.point_set(cls.case == "top")
    if is_independent(cls.field, rows):
        return f"parabolic-apartment-{cls.case}"
    if simplex_rank(cls.field, rows)[0]:
        return f"simplex-faces-{cls.case}"
    return "none"


def _unique_pgl(cls: Classification) -> bool:
    """Whether the points of a side over a zero base (m_space on the star
    side, the annihilator of n_space on the top side) are an n-simplex,
    the star side tried first."""
    sides = ((False, cls.star_points, cls.m_space.dim),
             (True, cls.top_points, cls.n - cls.n_space.dim))
    return any(points is not None and base == 0
               and simplex_rank(cls.field, cls.point_set(top)) == (True, cls.n)
               for top, points, base in sides)


def is_rigid(subject) -> RigidityReport:
    """Test every generator of the automorphism group of the image graph:
    ground-set transpositions, plus complementation when l == 2m.
    Extendability is closed under composition, so generator witnesses
    decide the whole group, and each generator's answer is exact."""
    cls = subject if isinstance(subject, Classification) else classify(subject)
    outcomes = tuple((aut, extend_automorphism(cls, aut))
                     for aut in johnson_aut_group(cls.l, cls.m))
    verdict = all(isinstance(outcome, ExtensionWitness) for _, outcome in outcomes)
    return RigidityReport(verdict, outcomes, _structure_case(cls), _unique_pgl(cls), cls)
