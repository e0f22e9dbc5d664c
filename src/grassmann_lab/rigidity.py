"""Rigidity of Johnson images: which automorphisms of the induced graph
extend to automorphisms of the ambient Grassmann graph.

Automorphisms of the Grassmann graph are exactly those induced by
semilinear automorphisms of V, plus the dualities through V* that exist
only when n = 2k.  Extending a ground-set permutation therefore reduces
to a line-mapping problem for the recovered generators: per Frobenius
twist, "u maps line i into line pi(i)" is a linear system in the matrix
entries, and the affine solution space is searched for an invertible
element.  Witnesses are never trusted from the solver; every one is
re-verified on the whole image.
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
    extended_identically_on: Subspace | None = None


@dataclass(frozen=True)
class NotExtendable:
    reason: str
    diagnostics: tuple[SigmaDiagnostics, ...] = ()


@dataclass(frozen=True)
class UnknownExtension:
    """The solution space was too large to exhaust and the fixed-seed draws
    found no witness; absence is not certified."""

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
    """Search for an invertible semilinear map sending each source subspace
    into its target.

    Per twist, the candidates are every nonzero combination of the solution
    basis when there are at most EXHAUSTIVE_CAP of them, and otherwise
    _sample_budget draws from one fixed-seed generator shared by the twists.
    Returns (map, per-sigma diagnostics, resolved).  resolved is True when
    the answer is certain: either a map was found, or every solution space
    was exhausted without one.
    """
    diagnostics = []
    resolved = True
    rng = random.Random(0)
    for t in F.automorphisms():
        constraints = _mapping_constraints(F, d, pairs, t)
        basis = linalg.nullspace(F, constraints, d * d)
        nullity = len(basis)
        exhaustive = F.q ** nullity - 1 <= EXHAUSTIVE_CAP
        if exhaustive:
            candidates = (c for c in itertools.product(F.elements(), repeat=nullity) if any(c))
        else:
            candidates = ([rng.randrange(F.q) for _ in range(nullity)]
                          for _ in range(_sample_budget(F.q, d)))
        searched = 0
        found = None
        for coeffs in candidates:
            searched += 1
            mat = _combine(F, d, basis, coeffs)
            if linalg.is_invertible(F, mat):
                found = SemilinearMap(F, mat, t)
                break
        diagnostics.append(SigmaDiagnostics(t, len(constraints), d * d - nullity, nullity,
                                            searched, exhaustive))
        if found is not None:
            return found, tuple(diagnostics), True
        resolved = resolved and exhaustive
    return None, tuple(diagnostics), resolved


# lifting solved maps to the full space -----------------------------------


def _std_vector(n: int, c: int) -> tuple[int, ...]:
    return tuple(1 if j == c else 0 for j in range(n))


def _lift_basis_images(F: GF, basis_rows, image_rows, t: int) -> linalg.Matrix:
    """Matrix of the semilinear map sending basis_rows[i] to image_rows[i]
    with twist t, in standard coordinates."""
    T = tuple(basis_rows)
    inv = linalg.inverse(F, T)
    twisted = tuple(frobenius_vec(F, row, t) for row in inv)
    return linalg.matmul(F, twisted, tuple(image_rows))


def extend_from_invariant(sub: Subspace, inner: SemilinearMap) -> SemilinearMap:
    """Extend a map of sub (in sub coordinates) to the whole space, acting
    as the identity on the standard complement of sub."""
    F, n = sub.field, sub.ambient_dim
    comp = [_std_vector(n, c) for c in complement_columns(sub)]
    basis = list(sub.rows) + comp
    images = [linalg.vecmat(F, row, sub.rows) for row in inner.matrix] + comp
    return SemilinearMap(F, _lift_basis_images(F, basis, images, inner.sigma), inner.sigma)


def extend_from_quotient(m_space: Subspace, inner: SemilinearMap) -> SemilinearMap:
    """Extend a map of the quotient by m_space (in complement-chart
    coordinates) to the whole space, preserving m_space."""
    F, n = m_space.field, m_space.ambient_dim
    free = complement_columns(m_space)
    basis = list(m_space.rows) + [_std_vector(n, c) for c in free]
    images = list(m_space.rows) + [lift_vector(m_space, row) for row in inner.matrix]
    return SemilinearMap(F, _lift_basis_images(F, basis, images, inner.sigma), inner.sigma)


# point-level extension ----------------------------------------------------


def induced_by_semilinear(points, perm
                          ) -> ExtensionWitness | NotExtendable | UnknownExtension:
    """Decide whether some semilinear automorphism realizes the permutation
    on the given projective points, i.e. maps point i onto point perm[i].

    When the points span a proper subspace, the problem is solved there
    and the map extended identically on a complement; the witness records
    that subspace.  A returned witness is re-verified pointwise.
    """
    pts = list(points.points if isinstance(points, PointSet) else points)
    if not pts:
        raise ValidationError("empty point family")
    perm = tuple(perm)
    if sorted(perm) != list(range(len(pts))):
        raise ValidationError("perm is not a permutation of the point indices")
    F = pts[0].field
    d = pts[0].ambient_dim
    span = sum_many(F, d, pts)
    restricted = span.dim < d
    if restricted:
        reduced = [Subspace(F, span.dim, coords_in(span, p)) for p in pts]
        solve_pts = reduced
        solve_dim = span.dim
    else:
        solve_pts = pts
        solve_dim = d
    pairs = [(solve_pts[i], solve_pts[perm[i]]) for i in range(len(pts))]
    inner, diagnostics, resolved = solve_semilinear_mapping(F, solve_dim, pairs)
    if inner is None:
        if resolved:
            return NotExtendable("no invertible semilinear solution for any "
                                 "field automorphism", diagnostics)
        return UnknownExtension(diagnostics)
    witness_map = extend_from_invariant(span, inner) if restricted else inner
    certificate = []
    for i, p in enumerate(pts):
        ok = witness_map.apply(p) == pts[perm[i]]
        certificate.append((i, ok))
        if not ok:
            raise InternalInvariantError("solver produced a map that fails on the points")
    return ExtensionWitness("semilinear", witness_map, tuple(certificate),
                            span if restricted else None)


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
    recovered generators (on the dual side for top-type images, pulled
    back through the contragredient).  The complement automorphism, legal
    only when l == 2m, requires a duality V -> V* and is therefore
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

    if cls.star_points is not None:
        points = cls.star_point_set()
        outcome = induced_by_semilinear(points, aut.perm)
        if not isinstance(outcome, ExtensionWitness):
            return outcome
        full = extend_from_quotient(cls.m_space, outcome.map)
        certificate = _verify_on_image(cls, aut, full.apply)
        return ExtensionWitness("semilinear", full, certificate)

    # top type: solve on the annihilator side, pull back contragrediently
    outcome = induced_by_semilinear(cls.top_point_set(), aut.perm)
    if not isinstance(outcome, ExtensionWitness):
        return outcome
    dual_full = extend_from_quotient(annihilator(cls.n_space), outcome.map)
    primal = contragredient(dual_full)
    certificate = _verify_on_image(cls, aut, primal.apply)
    return ExtensionWitness("semilinear", primal, certificate)


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
