"""Versioned JSON schemas for every value that crosses the CLI boundary.

All documents carry schema_version 1; embedding, classification and
point-set documents are refused without it.  Field elements serialize as
their int encodings (base-p digits of the polynomial residue).
Deserializers validate eagerly and name the offending field in their
errors; derived data (classifications) is never trusted from a file but
reconstructed through the certified construction, and a classification
document is accepted only as classify would write it again.
"""

from __future__ import annotations

import json
from typing import Any

from .config import check_ambient_dim
from .embeddings import Classification, EmbeddingInstance, build_construction, classify
from .errors import SchemaError
from .fields import GF
from .johnson import vertex_from_indices, vertex_indices
from .rigidity import ExtensionWitness, RigidityReport, SigmaDiagnostics
from .subspaces import Subspace

SCHEMA_VERSION = 1


def _need(obj: dict, key: str, context: str) -> Any:
    if not isinstance(obj, dict):
        raise SchemaError(f"{context}: expected an object")
    if key not in obj:
        raise SchemaError(f"{context}: missing field {key!r}")
    return obj[key]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_field(obj: dict, key: str, context: str) -> int:
    value = _need(obj, key, context)
    if not _is_int(value):
        raise SchemaError(f"{context}: field {key!r} must be an integer")
    return value


def _check_schema_version(obj: dict, context: str):
    if _int_field(obj, "schema_version", context) != SCHEMA_VERSION:
        raise SchemaError(f"{context}: unsupported schema_version, expected {SCHEMA_VERSION}")


def _field_from_json(obj: dict, context: str) -> GF:
    p = _int_field(obj, "p", context)
    e = _int_field(obj, "e", context) if "e" in obj else 1
    return GF.get(p, e)


def _rows_from_json(rows, field: GF, context: str) -> tuple[tuple[int, ...], ...]:
    """Rows of integers, each entry the encoding of an element of field."""
    if not isinstance(rows, list):
        raise SchemaError(f"{context}: expected a list of rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not all(_is_int(x) for x in row):
            raise SchemaError(f"{context}[{i}]: rows must be lists of integers")
        bad = next((x for x in row if not 0 <= x < field.q), None)
        if bad is not None:
            raise SchemaError(f"{context}[{i}]: entry {bad} outside {field}")
        out.append(tuple(row))
    return tuple(out)


def _subspaces_from_json(raw, field: GF, n: int, context: str) -> list[Subspace]:
    if not isinstance(raw, list):
        raise SchemaError(f"{context}: expected a list of subspaces")
    return [Subspace.from_rows(field, n, _rows_from_json(rows, field, f"{context}[{i}]"))
            for i, rows in enumerate(raw)]


# point sets ----------------------------------------------------------------


def pointset_from_json(obj: dict) -> tuple[GF, int, tuple[tuple[int, ...], ...]]:
    """The field, the coordinate dimension and the points as lead-one rows.
    The ambient kind must be primal or dual, but the rows do not depend
    on it."""
    _check_schema_version(obj, "pointset")
    amb = _need(obj, "ambient", "pointset")
    kind = _need(amb, "kind", "pointset.ambient")
    if kind not in ("primal", "dual"):
        raise SchemaError("pointset.ambient.kind: must be 'primal' or 'dual'")
    dim = _int_field(amb, "dim", "pointset.ambient")
    field = _field_from_json(amb, "pointset.ambient")
    raw = _need(obj, "points", "pointset")
    rows = _rows_from_json(raw, field, "pointset.points")
    points = []
    for i, row in enumerate(rows):
        if len(row) != dim:
            raise SchemaError(f"pointset.points[{i}]: expected {dim} coordinates")
        line = Subspace.from_rows(field, dim, (row,)).rows
        if not line:
            raise SchemaError(f"pointset.points[{i}]: zero vector is not a point")
        points.append(line[0])
    first = {}
    for i, point in enumerate(points):
        if first.setdefault(point, i) != i:
            raise SchemaError(f"pointset.points[{i}]: repeats points[{first[point]}]; "
                              "points must be pairwise distinct")
    return field, dim, tuple(points)


# embeddings ------------------------------------------------------------------


def embedding_to_json(inst: EmbeddingInstance) -> dict:
    entries = []
    for vertex in sorted(inst.assignment):
        entries.append({"vertex": list(vertex_indices(vertex)),
                        "subspace": [list(r) for r in inst.assignment[vertex].rows]})
    return {"schema_version": SCHEMA_VERSION,
            "params": {"l": inst.l, "m": inst.m, "n": inst.n, "k": inst.k,
                       "p": inst.field.p, "e": inst.field.e},
            "map": entries}


def embedding_from_json(obj: dict) -> EmbeddingInstance:
    _check_schema_version(obj, "embedding")
    params = _need(obj, "params", "embedding")
    l = _int_field(params, "l", "embedding.params")
    m = _int_field(params, "m", "embedding.params")
    n = _int_field(params, "n", "embedding.params")
    check_ambient_dim(n)
    k = _int_field(params, "k", "embedding.params")
    field = _field_from_json(params, "embedding.params")
    raw_map = _need(obj, "map", "embedding")
    if not isinstance(raw_map, list):
        raise SchemaError("embedding.map: expected a list")
    assignment = {}
    for i, entry in enumerate(raw_map):
        vertex_list = _need(entry, "vertex", f"embedding.map[{i}]")
        if (not isinstance(vertex_list, list)
                or not all(_is_int(x) and 0 <= x < l for x in vertex_list)):
            raise SchemaError(f"embedding.map[{i}].vertex: expected indices in [0, {l})")
        if not len(vertex_list) == len(set(vertex_list)) == m:
            raise SchemaError(f"embedding.map[{i}].vertex: expected {m} distinct indices")
        vertex = vertex_from_indices(vertex_list)
        if vertex in assignment:
            raise SchemaError(f"embedding.map[{i}].vertex: repeats an earlier entry's vertex")
        rows = _rows_from_json(_need(entry, "subspace", f"embedding.map[{i}]"), field,
                               f"embedding.map[{i}].subspace")
        sub = Subspace.from_rows(field, n, rows)
        if sub.dim != k:
            raise SchemaError(f"embedding.map[{i}].subspace: expected dimension {k}")
        assignment[vertex] = sub
    return EmbeddingInstance(l, m, assignment)


# classifications ---------------------------------------------------------------


def classification_to_json(cls: Classification) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "case": cls.case,
            "params": {"l": cls.l, "m": cls.m, "n": cls.n, "k": cls.k,
                       "p": cls.field.p, "e": cls.field.e},
            "m_space": [list(r) for r in cls.m_space.rows],
            "n_space": [list(r) for r in cls.n_space.rows],
            "star_points": (None if cls.star_points is None
                            else [[list(r) for r in s.rows] for s in cls.star_points]),
            "top_points": (None if cls.top_points is None
                           else [[list(r) for r in s.rows] for s in cls.top_points]),
            "is_full_apartment": cls.is_full_apartment}


def classification_from_json(obj: dict) -> Classification:
    """Rebuild a classification from its stored generators.

    The image is reconstructed through the certified construction and
    re-classified, and the document must hold exactly the fields of that
    classification, so corrupt or inconsistent files are rejected rather
    than trusted, and an accepted one is what classify writes from it.
    """
    _check_schema_version(obj, "classification")
    params = _need(obj, "params", "classification")
    n = _int_field(params, "n", "classification.params")
    check_ambient_dim(n)
    k = _int_field(params, "k", "classification.params")
    field = _field_from_json(params, "classification.params")
    top = obj.get("star_points") is None
    points_key, space_key = ("top_points", "n_space") if top else ("star_points", "m_space")
    if obj.get(points_key) is None:
        raise SchemaError("classification: needs star_points or top_points")
    rows = _rows_from_json(_need(obj, space_key, "classification"), field,
                           f"classification.{space_key}")
    gens = _subspaces_from_json(obj[points_key], field, n, f"classification.{points_key}")
    cls = classify(build_construction(Subspace.from_rows(field, n, rows), gens, k, top))
    # every field must be one the generators give, and what they give
    # (params.e is optional, as above)
    emitted = classification_to_json(cls)
    unknown = sorted(obj.keys() - emitted.keys())
    if unknown:
        raise SchemaError(f"classification.{unknown[0]}: not a field of a classification")
    doc = dict(obj, params={"e": 1, **params})
    for key, value in emitted.items():
        if (json.dumps(_need(doc, key, "classification"), sort_keys=True)
                != json.dumps(value, sort_keys=True)):
            raise SchemaError(
                f"classification.{key}: does not match the classification of its generators")
    return cls


# rigidity reports -----------------------------------------------------------


def _witness_to_json(w: ExtensionWitness) -> dict:
    return {"kind": w.kind, "matrix": [list(r) for r in w.map.matrix], "sigma": w.map.sigma,
            "codomain_is_dual": w.kind == "duality"}


def _diagnostics_to_json(diags: tuple[SigmaDiagnostics, ...]) -> list[dict]:
    return [{"sigma": d.sigma, "kind": d.kind, "point": d.point, "searched": d.searched}
            for d in diags]


def rigidity_report_to_json(report: RigidityReport, include_certificates: bool = False) -> dict:
    entries = []
    for aut, outcome in report.per_automorphism:
        entry: dict[str, Any] = {"perm": list(aut.perm), "complement": aut.complement}
        if isinstance(outcome, ExtensionWitness):
            entry["outcome"] = "witness"
            entry["witness"] = _witness_to_json(outcome)
        else:
            entry["outcome"] = "not-extendable"
            entry["reason"] = outcome.reason
            if include_certificates:
                entry["diagnostics"] = _diagnostics_to_json(outcome.diagnostics)
        entries.append(entry)
    cls = report.classification
    return {"schema_version": SCHEMA_VERSION,
            "params": {"l": cls.l, "m": cls.m, "n": cls.n, "k": cls.k,
                       "p": cls.field.p, "e": cls.field.e},
            "case": cls.case,
            "is_rigid": report.is_rigid,
            "rigidity_case": report.rigidity_case,
            "unique_pgl_extension": report.unique_pgl_extension,
            "per_automorphism": entries}


# graph index tables -------------------------------------------------------


def index_table_to_json(spec) -> dict:
    """The dense id <-> subspace table of an enumerated Grassmannian;
    position in the list is the id."""
    return {"schema_version": SCHEMA_VERSION,
            "params": {"n": spec.n, "k": spec.k,
                       "p": spec.field.p, "e": spec.field.e},
            "count": len(spec),
            "subspaces": [[list(r) for r in s.rows] for s in spec.subspaces]}


# file helpers -----------------------------------------------------------------


def load_json(path: str) -> dict:
    """Read a JSON document whose top-level value is an object."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read ({exc.strerror})") from exc
    except ValueError as exc:  # malformed JSON or undecodable bytes
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a JSON object at the top level")
    return obj


def dump_json(obj: dict) -> str:
    """The document's text, with its trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"
