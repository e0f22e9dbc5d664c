"""Input checks of the library that no CLI request reaches, each pinned by
its exception and a fragment of its message, so a case that reaches
another refusal than the one it was written for fails."""

import re

import pytest

from grassmann_lab import linalg
from grassmann_lab.embeddings import (EmbeddingInstance, build_construction,
                                      check_classification_params, classify)
from grassmann_lab.errors import ValidationError
from grassmann_lab.fields import GF
from grassmann_lab.independence import canonical_simplex, search_m_independent
from grassmann_lab.johnson import JohnsonAut, transposition_aut
from grassmann_lab.rigidity import extend_automorphism, induced_by_semilinear
from grassmann_lab.subspaces import Subspace, annihilator

F2 = GF.get(2)


def _lines(rows):
    return [Subspace.line(F2, row) for row in rows]


def _apartment() -> EmbeddingInstance:
    """J(4, 2) as the sums of pairs of the coordinate lines of F_2^4."""
    return build_construction(Subspace.zero(F2, 4), _lines(linalg.identity(4)), 2, False)


def _faces(top: bool):
    """The classification of J(5, 2) on the canonical simplex of F_2^4, on
    the star side or, annihilated, on the top side."""
    points = _lines(canonical_simplex(4, 4))
    if top:
        return classify(build_construction(Subspace.full(F2, 4),
                                           [annihilator(p) for p in points], 2, True))
    return classify(build_construction(Subspace.zero(F2, 4), points, 2, False))


def _replaced(assignment, space):
    """The assignment with its last vertex sent to space instead."""
    last = max(assignment)
    return {**assignment, last: space}


REFUSALS = {
    "instance-mixed-ambients": (
        lambda: EmbeddingInstance(4, 2, _replaced(
            _apartment().assignment, Subspace.from_rows(F2, 5, linalg.identity(5)[:2]))),
        ValidationError, "mixed ambients in assignment"),
    "instance-mixed-dimensions": (
        lambda: EmbeddingInstance(4, 2, _replaced(
            _apartment().assignment, Subspace.line(F2, (1, 0, 0, 0)))),
        ValidationError, "maps to dimension 1, not 2"),
    "classify-empty-image": (lambda: classify([]), ValidationError, "empty image"),
    "classify-mixed-image": (
        lambda: classify([Subspace.from_rows(F2, 4, linalg.identity(4)[:2]),
                          Subspace.from_rows(F2, 5, linalg.identity(5)[:2])]),
        ValidationError, "image members live in different Grassmannians"),
    "classification-k-bound": (
        lambda: check_classification_params(4, 2, 1, 4),
        ValidationError, "classification needs 1 < k < n-1, got k=1, n=4"),
    "classification-m-bound": (
        lambda: check_classification_params(4, 3, 2, 4),
        ValidationError, "classification needs 1 < m < l-1, got l=4, m=3"),
    "point-set-of-top-side-on-star-type": (
        lambda: _faces(False).point_set(True),
        ValidationError, "no dual generators on a star-type classification"),
    "point-set-of-star-side-on-top-type": (
        lambda: _faces(True).point_set(False),
        ValidationError, "no primal generators on a top-type classification"),
    "canonical-simplex-s-1": (
        lambda: canonical_simplex(3, 1), ValidationError, "a simplex needs s >= 2"),
    "point-search-m-0": (
        lambda: search_m_independent(F2, 3, 0, 4, 100), ValidationError,
        "m must be positive"),
    "matmul-shape": (
        lambda: linalg.matmul(F2, ((1, 0),), ((1,),)), ValidationError,
        "shape mismatch 2 vs 1"),
    "inverse-not-square": (
        lambda: linalg.inverse(F2, ((1, 0),)), ValidationError,
        "inverse requires a square matrix"),
    "induced-by-no-points": (
        lambda: induced_by_semilinear([], ()), ValidationError, "empty point family"),
    "automorphism-of-another-arity": (
        lambda: extend_automorphism(_faces(False), transposition_aut(4, 0, 1)),
        ValidationError, "automorphism acts on 4 symbols, image has 5"),
    "complement-at-l-not-2m": (
        lambda: extend_automorphism(_faces(False), JohnsonAut(tuple(range(5)), True)),
        ValidationError, "complement automorphism exists only when l = 2m"),
    "from-rows-entry-out-of-range": (
        lambda: Subspace.from_rows(F2, 2, ((2, 0),)), ValidationError,
        "entry outside field range"),
    "contains-across-ambients": (
        lambda: Subspace.zero(F2, 3).contains(Subspace.zero(F2, 4)), ValidationError,
        "ambient mismatch: 3 vs 4"),
    "inverse-of-0": (lambda: F2.inv(0), ZeroDivisionError, "0 has no inverse"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_library_refusal_names_its_check(case):
    call, error, fragment = REFUSALS[case]
    with pytest.raises(error, match=re.escape(fragment)):
        call()
