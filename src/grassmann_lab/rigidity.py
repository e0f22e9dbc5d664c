"""Rigidity of Johnson images: which automorphisms of the induced graph
extend to automorphisms of the ambient Grassmann graph.

Automorphisms of the Grassmann graph are exactly those induced by
semilinear automorphisms of V, plus the dualities through V* that exist
only when n = 2k.  Extending a ground-set permutation therefore reduces
to a line-mapping problem for the recovered generators, and extending the
complement to a subspace-mapping problem from the star generators to the
annihilated top generators.  One solver takes both: a map sending each
source onto its target sends the sum of the sources onto the sum of the
targets, so per Frobenius twist, "u maps source i onto target i" is a
linear system in the entries of a map between those two spans, and its
solution space is searched for an invertible element.  Witnesses are never
trusted from the solver; every one is re-verified on the whole image.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field

from . import linalg
from .embeddings import Classification, classify, rebuild
from .errors import InternalInvariantError, ValidationError
from .fields import GF
from .independence import PointSet, is_independent, simplex_rank
from .johnson import JohnsonAut, johnson_aut_group
from .linalg import frobenius_vec
from .subspaces import (SemilinearMap, Subspace, annihilator, complement_columns,
                        contragredient, coords_in, lift_vector, sum_many)

EXHAUSTIVE_CAP = 1 << 20
UNIT_SAMPLES = 4096


@dataclass(frozen=True)
class SigmaDiagnostics:
    """Feasibility record for one Frobenius twist."""

    sigma: int
    constraints: int
    rank: int
    nullity: int
    searched: int
    exhaustive: bool


@dataclass(frozen=True)
class ExtensionWitness:
    kind: str  # "semilinear" | "duality"
    map: SemilinearMap
    certificate: tuple[tuple[int, bool], ...] = ()


@dataclass(frozen=True)
class NotExtendable:
    reason: str
    diagnostics: tuple[SigmaDiagnostics, ...] = ()


@dataclass(frozen=True)
class UnknownExtension:
    """Even between the spans, the solution space was past EXHAUSTIVE_CAP
    and the fixed-seed draws found no witness; absence is not certified."""

    diagnostics: tuple[SigmaDiagnostics, ...] = ()


# feasibility core -------------------------------------------------------


def _mapping_constraints(F: GF, d: int, pairs, t: int) -> linalg.Matrix:
    """Linear constraints on the d*d matrix entries forcing
    sigma_t(src) @ U to land inside dst, for every (src, dst) pair."""
    rows = []
    for src, dst in pairs:
        ann_rows = annihilator(dst).rows
        for w in src.rows:
            w_t = frobenius_vec(F, w, t)
            for z in ann_rows:
                row = [0] * (d * d)
                for a in range(d):
                    wa = w_t[a]
                    if wa:
                        base = a * d
                        for b in range(d):
                            if z[b]:
                                row[base + b] = F.mul(wa, z[b])
                rows.append(tuple(row))
    return tuple(rows)


def _combine(F: GF, d: int, basis, coeffs) -> linalg.Matrix:
    flat = [0] * (d * d)
    for c, vec in zip(coeffs, basis):
        if c:
            for idx, x in enumerate(vec):
                if x:
                    flat[idx] = F.add(flat[idx], F.mul(c, x))
    return tuple(tuple(flat[r * d:(r + 1) * d]) for r in range(d))


def _sample_budget(q: int, d: int) -> int:
    # Schwartz-Zippel gives a miss probability of at most (d/q) per draw
    # when an invertible solution exists and q > d; aim at 2^-40 overall.
    if q > d:
        return max(64, math.ceil(40 / math.log2(q / d)))
    return UNIT_SAMPLES


def solve_semilinear_mapping(F: GF, d: int, pairs
                             ) -> tuple[SemilinearMap | None, tuple[SigmaDiagnostics, ...], bool]:
    """Search for an invertible semilinear map of F^d sending each source
    subspace onto its target.

    The search runs on maps W from S, the sum of the sources, onto D, the
    sum of the targets, in the coordinates of their RREF bases; the witness
    sends the standard complement of S onto that of D.  Per twist, the
    candidates are every nonzero combination of the solution basis, units
    before zero in each coordinate, when there are at most EXHAUSTIVE_CAP
    of them, and otherwise _sample_budget draws from one fixed-seed
    generator shared by the twists.  Returns (map, per-sigma diagnostics,
    resolved); resolved is True when a map was found, S and D differ in
    dimension, or every solution space was exhausted.
    """
    if any(src.dim != dst.dim for src, dst in pairs):
        raise ValidationError("each source must have the dimension of its target")
    span = sum_many(F, d, (src for src, _ in pairs))
    image = sum_many(F, d, (dst for _, dst in pairs))
    if span.dim != image.dim:
        return None, (), True
    r = span.dim
    reduced = [(Subspace.from_rows(F, r, coords_in(span, src)),
                Subspace.from_rows(F, r, coords_in(image, dst))) for src, dst in pairs]
    order = (*F.units(), 0)
    diagnostics = []
    resolved = True
    rng = random.Random(0)
    for t in F.automorphisms():
        constraints = _mapping_constraints(F, r, reduced, t)
        basis = linalg.nullspace(F, constraints, r * r)
        nullity = len(basis)
        exhaustive = F.q ** nullity - 1 <= EXHAUSTIVE_CAP
        if exhaustive:
            candidates = (c for c in itertools.product(order, repeat=nullity) if any(c))
        else:
            candidates = ([rng.randrange(F.q) for _ in range(nullity)]
                          for _ in range(_sample_budget(F.q, r)))
        searched = 0
        found = None
        for coeffs in candidates:
            searched += 1
            mat = _combine(F, r, basis, coeffs)
            if linalg.is_invertible(F, mat):
                images = tuple(linalg.vecmat(F, row, image.rows) for row in mat)
                found = _map_sending(F, _completed(span), images + _completed(image)[r:], t)
                break
        diagnostics.append(SigmaDiagnostics(t, len(constraints), r * r - nullity, nullity,
                                            searched, exhaustive))
        if found is not None:
            return found, tuple(diagnostics), True
        resolved = resolved and exhaustive
    return None, tuple(diagnostics), resolved


# lifting solved maps to the full space -----------------------------------


def _completed(s: Subspace) -> linalg.Matrix:
    """s's basis rows, then the standard basis vectors at its non-pivot
    columns: a basis of the whole space."""
    eye = linalg.identity(s.ambient_dim)
    return s.rows + tuple(eye[c] for c in complement_columns(s))


def _map_sending(F: GF, basis_rows, image_rows, t: int) -> SemilinearMap:
    """The semilinear map with twist t sending basis_rows[i] to image_rows[i]."""
    inv = linalg.inverse(F, tuple(basis_rows))
    twisted = tuple(frobenius_vec(F, row, t) for row in inv)
    return SemilinearMap(F, linalg.matmul(F, twisted, tuple(image_rows)), t)


def extend_from_quotient(m_space: Subspace, inner: SemilinearMap) -> SemilinearMap:
    """Extend a map of the quotient by m_space (in complement-chart
    coordinates) to the whole space, preserving m_space."""
    return _map_sending(m_space.field, _completed(m_space),
                        m_space.rows + tuple(lift_vector(m_space, row) for row in inner.matrix),
                        inner.sigma)


# point-level extension ----------------------------------------------------


def induced_by_semilinear(points, perm
                          ) -> ExtensionWitness | NotExtendable | UnknownExtension:
    """Decide whether some semilinear automorphism realizes the permutation
    on the given projective points, i.e. maps point i onto point perm[i].

    The search runs on the span of the points; the witness acts there and
    fixes the standard complement.  A returned witness is re-verified
    pointwise.
    """
    pts = list(points.points if isinstance(points, PointSet) else points)
    if not pts:
        raise ValidationError("empty point family")
    perm = tuple(perm)
    if sorted(perm) != list(range(len(pts))):
        raise ValidationError("perm is not a permutation of the point indices")
    F = pts[0].field
    pairs = [(p, pts[j]) for p, j in zip(pts, perm)]
    witness_map, diagnostics, resolved = solve_semilinear_mapping(F, pts[0].ambient_dim, pairs)
    if witness_map is None:
        if resolved:
            return NotExtendable("no invertible semilinear solution for any "
                                 "field automorphism", diagnostics)
        return UnknownExtension(diagnostics)
    certificate = []
    for i, p in enumerate(pts):
        ok = witness_map.apply(p) == pts[perm[i]]
        certificate.append((i, ok))
        if not ok:
            raise InternalInvariantError("solver produced a map that fails on the points")
    return ExtensionWitness("semilinear", witness_map, tuple(certificate))


# embedding-level extension -------------------------------------------------


def _verify_on_image(cls: Classification, aut: JohnsonAut, action) -> tuple[tuple[int, bool], ...]:
    assignment = rebuild(cls)
    certificate = []
    for vertex, space in assignment.items():
        ok = action(space) == assignment[aut.apply(vertex)]
        certificate.append((vertex, ok))
        if not ok:
            raise InternalInvariantError("witness fails to realize the automorphism")
    return tuple(certificate)


def extend_automorphism(subject, aut: JohnsonAut
                        ) -> ExtensionWitness | NotExtendable | UnknownExtension:
    """Extend one automorphism of the image graph to the Grassmann graph.

    Permutation automorphisms become line-mapping problems for the
    recovered generators (for top-type images, on the annihilator side,
    pulled back through the contragredient).  The complement automorphism,
    legal only when l == 2m, requires a duality V -> V* and is therefore
    immediately not extendable unless n == 2k.
    """
    cls = subject if isinstance(subject, Classification) else classify(subject)
    if aut.l != cls.l:
        raise ValidationError(f"automorphism acts on {aut.l} symbols, image has {cls.l}")

    if aut.complement:
        if cls.l != 2 * cls.m:
            raise ValidationError("complement automorphism exists only when l = 2m")
        if cls.n != 2 * cls.k:
            return NotExtendable(
                "complement requires a duality of the Grassmann graph, "
                "which exists only when n = 2k")
        pairs = [(cls.star_points[j], annihilator(cls.top_points[aut.perm[j]]))
                 for j in range(cls.l)]
        smap, diagnostics, resolved = solve_semilinear_mapping(cls.field, cls.n, pairs)
        if smap is None:
            return (NotExtendable("no duality realizes the complement automorphism",
                                  diagnostics) if resolved else UnknownExtension(diagnostics))
        duality = SemilinearMap(cls.field, smap.matrix, smap.sigma, codomain_is_dual=True)
        certificate = _verify_on_image(cls, aut, lambda s: annihilator(duality.apply(s)))
        return ExtensionWitness("duality", duality, certificate)

    # a top-type image is the star side of its annihilated image
    if cls.star_points is not None:
        points, base, pull_back = cls.star_point_set(), cls.m_space, None
    else:
        points, base, pull_back = cls.top_point_set(), annihilator(cls.n_space), contragredient
    outcome = induced_by_semilinear(points, aut.perm)
    if not isinstance(outcome, ExtensionWitness):
        return outcome
    full = extend_from_quotient(base, outcome.map)
    if pull_back is not None:
        full = pull_back(full)
    certificate = _verify_on_image(cls, aut, full.apply)
    return ExtensionWitness("semilinear", full, certificate)


# the rigidity verdict -------------------------------------------------------


@dataclass(frozen=True)
class RigidityReport:
    """Outcome of testing every generator of Aut of the image graph.

    is_rigid is True when all generators extend, False when at least one
    is certifiably not extendable, and None when the only failures are
    unresolved sampled searches.
    """

    is_rigid: bool | None
    per_automorphism: tuple[tuple[JohnsonAut, object], ...]
    rigidity_case: str
    unique_pgl_extension: bool
    classification: Classification = dc_field(repr=False)


def _structure_case(cls: Classification) -> str:
    if cls.l == 2 * cls.m:
        return "parabolic-apartment"
    if cls.case == "star":
        ps = cls.star_point_set()
        side = "star"
    else:
        ps = cls.top_point_set()
        side = "top"
    if is_independent(ps):
        return f"parabolic-apartment-{side}"
    if simplex_rank(ps)[0]:
        return f"simplex-faces-{side}"
    return "none"


def _unique_pgl(cls: Classification) -> bool:
    if cls.star_points is not None and cls.m_space.dim == 0:
        ok, s = simplex_rank(cls.star_point_set())
        if ok and s == cls.n:
            return True
    if cls.top_points is not None and cls.n_space.dim == cls.n:
        ok, s = simplex_rank(cls.top_point_set())
        if ok and s == cls.n:
            return True
    return False


def is_rigid(subject) -> RigidityReport:
    """Test every generator of the automorphism group of the image graph:
    ground-set transpositions, plus complementation when l == 2m.
    Extendability is closed under composition, so generator witnesses
    decide the whole group."""
    cls = subject if isinstance(subject, Classification) else classify(subject)
    outcomes = []
    verdict: bool | None = True
    for aut in johnson_aut_group(cls.l, cls.m):
        outcome = extend_automorphism(cls, aut)
        outcomes.append((aut, outcome))
        if isinstance(outcome, NotExtendable):
            verdict = False
        elif isinstance(outcome, UnknownExtension) and verdict is True:
            verdict = None
    return RigidityReport(verdict, tuple(outcomes), _structure_case(cls),
                          _unique_pgl(cls), cls)
