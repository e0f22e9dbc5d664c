import pytest

from grassmann_lab import jsonio
from grassmann_lab.embeddings import build_construction, classify
from grassmann_lab.errors import SchemaError
from grassmann_lab.fields import GF
from grassmann_lab.independence import canonical_simplex
from grassmann_lab.rigidity import is_rigid
from grassmann_lab.subspaces import Subspace

from helpers import pointset_to_json

F2 = GF.get(2)


def unit(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def apartment_instance():
    gens = [Subspace.line(F2, unit(i, 4)) for i in range(4)]
    return build_construction(Subspace.zero(F2, 4), gens, 2, False)


def test_pointset_round_trip():
    rows = canonical_simplex(4, 3)
    obj = pointset_to_json(F2, rows)
    assert obj["schema_version"] == 1
    assert jsonio.pointset_from_json(obj) == (F2, 4, rows)
    # the loader gives each point its lead-one row
    F3 = GF.get(3)
    scaled = pointset_to_json(F3, [(0, 2, 1), (2, 2, 0)], kind="dual")
    assert jsonio.pointset_from_json(scaled) == (F3, 3, ((0, 1, 2), (1, 1, 0)))


def test_pointset_rejects_zero_vector():
    obj = {"schema_version": 1,
           "ambient": {"kind": "primal", "dim": 3, "p": 2, "e": 1},
           "points": [[0, 0, 0]]}
    with pytest.raises(SchemaError) as err:
        jsonio.pointset_from_json(obj)
    assert "points[0]" in str(err.value)


def test_embedding_round_trip():
    inst = apartment_instance()
    obj = jsonio.embedding_to_json(inst)
    assert obj["params"] == {"l": 4, "m": 2, "n": 4, "k": 2, "p": 2, "e": 1}
    back = jsonio.embedding_from_json(obj)
    assert back.assignment == inst.assignment


def test_embedding_schema_errors_name_fields():
    inst = apartment_instance()
    obj = jsonio.embedding_to_json(inst)
    del obj["map"][0]["vertex"]
    with pytest.raises(SchemaError) as err:
        jsonio.embedding_from_json(obj)
    assert "map[0]" in str(err.value)
    obj2 = jsonio.embedding_to_json(inst)
    obj2["map"][1]["vertex"] = [0, 9]
    with pytest.raises(SchemaError) as err:
        jsonio.embedding_from_json(obj2)
    assert "map[1].vertex" in str(err.value)


def test_classification_round_trip_star_and_parabolic():
    inst = apartment_instance()
    cls = classify(inst)
    obj = jsonio.classification_to_json(cls)
    assert obj["case"] == "parabolic-apartment"
    back = jsonio.classification_from_json(obj)
    assert back.case == cls.case
    assert back.image == cls.image
    gens = [Subspace.line(F2, row) for row in canonical_simplex(4, 4)]
    cls5 = classify(build_construction(Subspace.zero(F2, 4), gens, 2, False))
    obj5 = jsonio.classification_to_json(cls5)
    back5 = jsonio.classification_from_json(obj5)
    assert back5.case == "star" and back5.image == cls5.image


def test_classification_from_json_rejects_garbage():
    with pytest.raises(SchemaError):
        jsonio.classification_from_json({"case": "star", "params": {"n": 4, "k": 2,
                                                                    "p": 2, "e": 1}})


def test_classification_from_json_takes_exactly_the_fields_classify_writes():
    # a star-type J(5, 2) has no top points: the null field may not be left
    # out, and no field may be added
    gens = [Subspace.line(F2, row) for row in canonical_simplex(4, 4)]
    obj = jsonio.classification_to_json(classify(build_construction(
        Subspace.zero(F2, 4), gens, 2, False)))
    assert obj["top_points"] is None
    for edit, message in ((lambda d: d.pop("top_points"), "missing field 'top_points'"),
                          (lambda d: d.update(note=0), "classification.note: not a field")):
        doc = dict(obj)
        edit(doc)
        with pytest.raises(SchemaError, match=message):
            jsonio.classification_from_json(doc)


def test_rigidity_report_json():
    inst = apartment_instance()
    report = is_rigid(inst)
    obj = jsonio.rigidity_report_to_json(report)
    assert obj["is_rigid"] is True
    assert obj["case"] == "parabolic-apartment"
    outcomes = {entry["outcome"] for entry in obj["per_automorphism"]}
    assert outcomes == {"witness"}
    kinds = {entry["witness"]["kind"] for entry in obj["per_automorphism"]}
    assert kinds == {"semilinear", "duality"}
    # certificates appear only when requested
    x6 = [Subspace.line(F2, v) for v in
          [unit(i, 6) for i in range(4)] + [(1, 1, 1, 1, 0, 0), unit(4, 6)]]
    bad_report = is_rigid(build_construction(Subspace.zero(F2, 6), x6, 2, False))
    lean = jsonio.rigidity_report_to_json(bad_report)
    refused = [e for e in lean["per_automorphism"] if e["outcome"] == "not-extendable"]
    assert refused and all("diagnostics" not in e for e in refused)
    fat = jsonio.rigidity_report_to_json(bad_report, include_certificates=True)
    refused_fat = [e for e in fat["per_automorphism"] if e["outcome"] == "not-extendable"]
    assert all(e["diagnostics"] for e in refused_fat)
    diag = refused_fat[0]["diagnostics"][0]
    assert set(diag) == {"sigma", "kind", "point", "searched"}


def test_dump_and_load(tmp_path):
    inst = apartment_instance()
    path = tmp_path / "embedding.json"
    path.write_text(jsonio.dump_json(jsonio.embedding_to_json(inst)))
    loaded = jsonio.load_json(str(path))
    assert jsonio.embedding_from_json(loaded).image == inst.image
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SchemaError):
        jsonio.load_json(str(bad))
