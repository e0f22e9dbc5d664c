import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import grassmann_lab
from grassmann_lab import cli
from grassmann_lab.cli import main
from grassmann_lab.errors import InternalInvariantError
from grassmann_lab.independence import search_m_independent

from helpers import memo_active, rref_calls


def run(args):
    return main([str(a) for a in args])


def test_build_classify_rigidity_pipeline(tmp_path, capsys):
    emb = tmp_path / "apartment.json"
    assert run(["build", "apartment", "--n", 4, "--k", 2, "--p", 2,
                "--output", emb]) == 0
    assert run(["classify", "--input", emb]) == 0
    cls = json.loads(capsys.readouterr().out)
    assert cls["case"] == "parabolic-apartment"
    assert cls["is_full_apartment"] is True
    assert run(["rigidity", "--input", emb]) == 0
    rig = json.loads(capsys.readouterr().out)
    assert rig["is_rigid"] is True
    assert any(e["witness"]["kind"] == "duality" for e in rig["per_automorphism"])


def test_build_output_feeds_every_consumer_unchanged(tmp_path):
    emb = tmp_path / "sf.json"
    cls_path = tmp_path / "sf.cls.json"
    rig_path = tmp_path / "sf.rig.json"
    assert run(["build", "simplex-faces", "--n", 4, "--k", 2, "--p", 2,
                "--output", emb]) == 0
    assert run(["classify", "--input", emb, "--output", cls_path]) == 0
    assert run(["rigidity", "--input", emb, "--output", rig_path]) == 0
    cls = json.loads(cls_path.read_text())
    rig = json.loads(rig_path.read_text())
    assert cls["case"] == "star"
    assert rig["unique_pgl_extension"] is True
    # a classification document is itself valid rigidity input
    assert run(["rigidity", "--input", cls_path, "--output", rig_path]) == 0
    assert json.loads(rig_path.read_text())["is_rigid"] is True


def test_build_dual_and_sum(tmp_path):
    dual = tmp_path / "dual.json"
    assert run(["build", "dual", "--n", 4, "--k", 2, "--p", 2, "--output", dual]) == 0
    params = json.loads(dual.read_text())["params"]
    assert params["l"] == 5 and params["m"] == 2
    summed = tmp_path / "sum.json"
    assert run(["build", "sum", "--n", 5, "--k", 2, "--p", 2, "--l", 5,
                "--output", summed]) == 0
    assert json.loads(summed.read_text())["params"]["l"] == 5


def test_build_with_pointset_input(tmp_path):
    points = {"schema_version": 1,
              "ambient": {"kind": "primal", "dim": 4, "p": 2, "e": 1},
              "points": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                         [1, 1, 1, 1]]}
    ps_path = tmp_path / "points.json"
    ps_path.write_text(json.dumps(points))
    emb = tmp_path / "emb.json"
    assert run(["build", "sum", "--n", 4, "--k", 2, "--p", 2,
                "--points", ps_path, "--output", emb]) == 0
    assert json.loads(emb.read_text())["params"]["l"] == 5


def test_exit_code_2_on_infeasible_search(tmp_path, capsys):
    # PG(3,2) has no 7-point set in general position
    code = run(["build", "sum", "--n", 4, "--k", 2, "--p", 2, "--l", 7])
    capsys.readouterr()
    assert code == 2


def test_exit_code_3_on_unknown_search(tmp_path, capsys):
    code = run(["build", "sum", "--n", 4, "--k", 2, "--p", 2, "--l", 5,
                "--budget", 2])
    capsys.readouterr()
    assert code == 3


def test_budget_exhausted_point_search_exits_3_with_one_line(capsys):
    code = run(["build", "sum", "--n", 4, "--k", 2, "--p", 2, "--l", 5, "--budget", 2])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: point search exhausted its budget of 2 nodes without a certificate"]


def test_exit_code_2_on_negative_budget(capsys):
    code = run(["build", "sum", "--n", 4, "--k", 2, "--p", 2, "--l", 5, "--budget", -1])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: need a budget of at least 0 nodes, got -1"]


@pytest.mark.parametrize("given,searched", [([], 2_000_000), (["--budget", 1000], 1000)],
                         ids=["default", "given"])
def test_build_sum_searches_with_the_given_or_default_budget(capsys, monkeypatch,
                                                             given, searched):
    from grassmann_lab import cli
    budgets = []

    def recording(F, d, m, size, budget):
        budgets.append(budget)
        return search_m_independent(F, d, m, size, budget)

    monkeypatch.setattr(cli, "search_m_independent", recording)
    assert run(["build", "sum", "--n", 4, "--k", 2, "--p", 2, "--l", 5, *given]) == 0
    capsys.readouterr()
    assert budgets == [searched]


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "params": {}}))
    code = run(["classify", "--input", bad])
    capsys.readouterr()
    assert code == 2
    code = run(["build", "sum", "--n", 4, "--k", 2, "--p", 2])  # no --l
    capsys.readouterr()
    assert code == 2


def test_oracle_summary_and_jsonl(tmp_path, capsys):
    summary_path = tmp_path / "summary.json"
    jsonl_path = tmp_path / "images.jsonl"
    assert run(["oracle", "--l", 4, "--m", 2, "--n", 4, "--k", 2, "--p", 2,
                "--output", summary_path, "--jsonl", jsonl_path]) == 0
    capsys.readouterr()
    summary = json.loads(summary_path.read_text())
    assert summary["image_count"] == 840
    assert summary["ok"] is True
    assert summary["tag_histogram"] == {"parabolic-apartment": 840}
    lines = jsonl_path.read_text().splitlines()
    assert len(lines) == 840
    first = json.loads(lines[0])
    assert len(first["ids"]) == 6 and len(first["rows"]) == 6


def test_oracle_budget_exit_code(tmp_path, capsys):
    code = run(["oracle", "--l", 4, "--m", 2, "--n", 4, "--k", 2, "--p", 2,
                "--budget", 50])
    capsys.readouterr()
    assert code == 3


def test_oracle_symmetry_reduction_at_n_equal_2k(capsys):
    assert run(["oracle", "--l", 4, "--m", 2, "--n", 4, "--k", 2, "--p", 2,
                "--symmetry-reduction"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["ok"] is True
    assert summary["image_count"] == 144
    assert summary["apartment_match"] is True


def _cli_in_child(argv, timeout):
    env = dict(os.environ, PYTHONPATH=str(Path(grassmann_lab.__file__).parents[1]),
               GRASSMANN_LAB_CAPS="")
    return subprocess.run([sys.executable, "-m", "grassmann_lab.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=timeout)


@pytest.mark.parametrize("request_name", ["oracle", "export", "rigidity"])
def test_closed_stdout_exits_quietly(tmp_path, request_name):
    cls = tmp_path / "cls.json"
    requests = {
        "oracle": ["oracle", "--l", 4, "--m", 2, "--n", 4, "--k", 2, "--p", 2],
        "export": ["export", "--graph", "grassmann", "--p", 2, "--n", 4, "--k", 2],
        "rigidity": ["rigidity", "--input", cls, "--dump-certificates"],
    }
    if request_name == "rigidity":
        emb = tmp_path / "emb.json"
        assert run(["build", "apartment", "--n", 4, "--k", 2, "--p", 2, "--output", emb]) == 0
        assert run(["classify", "--input", emb, "--output", cls]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(grassmann_lab.__file__).parents[1]),
               GRASSMANN_LAB_CAPS="")
    proc = subprocess.Popen(
        [sys.executable, "-m", "grassmann_lab.cli", *map(str, requests[request_name])],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader goes away before the document is written
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 0
    assert err == b""


def test_huge_characteristic_in_a_document_exits_2_at_once(tmp_path):
    emb = tmp_path / "apartment.json"
    assert run(["build", "apartment", "--n", 4, "--k", 2, "--p", 2, "--output", emb]) == 0
    doc = json.loads(emb.read_text())
    doc["params"]["p"] = 1000000016000000063  # prime: trial division takes hours
    emb.write_text(json.dumps(doc))
    # a child process, so a regression fails at the timeout instead of hanging
    start = time.monotonic()
    proc = _cli_in_child(["classify", "--input", emb], timeout=10)
    elapsed = time.monotonic() - start
    assert proc.returncode == 2
    assert proc.stderr.strip().splitlines() == [
        "error: characteristic 1000000016000000063 exceeds the field order cap 16"]
    assert elapsed < 1.0


def test_oracle_wider_than_the_grassmannian_exits_0_at_once():
    # diameter 12 > 2 settles it before the C(24, 12) Johnson vertices are
    # listed and ordered, in quadratic time.  A child process, so a
    # regression fails at the timeout instead of hanging
    proc = _cli_in_child(["oracle", "--l", 24, "--m", 12, "--n", 4, "--k", 2, "--p", 2],
                         timeout=10)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["image_count"] == 0 and summary["nodes"] == 0
    assert summary["complete"] is True and summary["ok"] is True


def test_oracle_with_no_room_skips_the_bfs_preflight():
    # C(64, 3) vertices cannot fit, so the search visits no node and never
    # reads the distance table; the whole-graph BFS over the 1,395 planes
    # of GF(2)^6 would take seconds.  A child process, so a regression fails
    # at the timeout instead of hanging
    start = time.monotonic()
    proc = _cli_in_child(["oracle", "--l", 64, "--m", 3, "--n", 6, "--k", 3, "--p", 2],
                         timeout=30)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["nodes"] == 0 and summary["bfs_agrees"] is None
    assert summary["ok"] is True
    assert elapsed < 1.0


def test_oracle_past_its_budget_at_n_equal_2k_exits_3_with_one_line():
    # GF(2)^6 has 27,998,208 apartments of 20 planes each; the apartment
    # check counts them in closed form, and a search stopped by its budget
    # has no count to match.  A child process, so a regression fails at the
    # timeout instead of hanging or exhausting memory
    proc = _cli_in_child(["oracle", "--l", 6, "--m", 3, "--n", 6, "--k", 3, "--p", 2,
                          "--budget", 1000], timeout=60)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [
        "error: enumeration exceeded the budget of 1000 nodes"]
    summary = json.loads(proc.stdout)
    assert summary["complete"] is False and summary["apartment_match"] is None


def test_oracle_stopped_by_its_budget_classifies_none_of_its_images():
    # 100,000 nodes find thousands of images, which classifying would take
    # seconds to certify nothing about; a child process, so a regression
    # fails at the timeout
    proc = _cli_in_child(["oracle", "--l", 6, "--m", 3, "--n", 6, "--k", 3, "--p", 2,
                          "--budget", 100_000], timeout=30)
    assert proc.returncode == 3
    assert proc.stderr.strip().splitlines() == [
        "error: enumeration exceeded the budget of 100000 nodes"]
    summary = json.loads(proc.stdout)
    assert summary["image_count"] > 0 and summary["bfs_agrees"] is True
    assert summary["all_classified"] is None
    assert summary["tag_histogram"] == {} and summary["ok"] is False


@pytest.mark.parametrize("option", ["--jsonl", "--output"])
def test_oracle_refuses_an_unwritable_path_before_the_search(tmp_path, capsys, monkeypatch,
                                                             option):
    from grassmann_lab import cli

    def never(cfg):
        raise AssertionError("searched before the output paths were checked")

    monkeypatch.setattr(cli, "enumerate_embeddings", never)
    missing = tmp_path / "no-such-dir" / "out"
    assert run(["oracle", "--l", 5, "--m", 2, "--n", 5, "--k", 2, "--p", 2,
                option, missing]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {missing}: cannot write "
                                         f"(No such file or directory)"]


def test_point_search_past_the_vertex_cap_exits_2_at_once():
    # the generator search would list all 286,331,153 points of PG(7, 16).
    # A child process, so a regression fails at the timeout instead of hanging
    proc = _cli_in_child(["build", "sum", "--p", 2, "--e", 4, "--n", 8, "--k", 2, "--l", 5],
                         timeout=20)
    assert proc.returncode == 2
    assert proc.stderr.strip().splitlines() == [
        "error: PG(7, 16) with 286331153 points exceeds cap 100000"]


@pytest.mark.parametrize("option,value,message", [
    ("--jobs", 0, "error: need at least one job, got jobs=0"),
    ("--budget", -1, "error: need a budget of at least 0 nodes, got -1"),
], ids=["jobs", "budget"])
def test_oracle_bad_jobs_or_budget_exits_2(option, value, message):
    proc = _cli_in_child(["oracle", "--l", 4, "--m", 2, "--n", 4, "--k", 2, "--p", 2,
                          option, value], timeout=20)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [message]


def test_export_johnson_and_grassmann_stable(capsys):
    assert run(["export", "--graph", "johnson", "--l", 4, "--m", 2]) == 0
    first = capsys.readouterr().out
    assert run(["export", "--graph", "johnson", "--l", 4, "--m", 2]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("graph johnson_4_2 {")
    assert first.count("--") == 12  # octahedron edges
    assert run(["export", "--graph", "grassmann", "--n", 4, "--k", 2, "--p", 2]) == 0
    gout = capsys.readouterr().out
    assert 'tooltip="[' in gout


def test_export_induced_from_embedding(tmp_path, capsys):
    emb = tmp_path / "apartment.json"
    run(["build", "apartment", "--n", 4, "--k", 2, "--p", 2, "--output", emb])
    dot_path = tmp_path / "induced.dot"
    assert run(["export", "--input", emb, "--dot", dot_path]) == 0
    capsys.readouterr()
    text = dot_path.read_text()
    assert text.count("--") == 12
    assert run(["export", "--input", emb, "--dot", dot_path]) == 0
    assert dot_path.read_text() == text


def test_export_index_table_json(capsys):
    assert run(["export", "--graph", "grassmann", "--n", 4, "--k", 2, "--p", 2,
                "--format", "json"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["count"] == 35
    assert len(table["subspaces"]) == 35
    assert table["params"] == {"n": 4, "k": 2, "p": 2, "e": 1}
    # json export applies to index tables only
    code = run(["export", "--graph", "johnson", "--l", 4, "--m", 2,
                "--format", "json"])
    capsys.readouterr()
    assert code == 2


def test_caps_override_flag(capsys):
    # without the override a big field is refused; with it, accepted
    code = run(["export", "--graph", "grassmann", "--n", 3, "--k", 1, "--p", 17])
    capsys.readouterr()
    assert code == 2
    from grassmann_lab.config import set_caps
    try:
        code = run(["--q-cap", "17", "export", "--graph", "grassmann",
                    "--n", 3, "--k", 1, "--p", 17])
        capsys.readouterr()
        assert code == 0
    finally:
        set_caps(q_max=16)


@pytest.mark.parametrize("option,name", [("--q-cap", "q_max"), ("--n-cap", "n_max")])
def test_zero_cap_exits_2_with_one_line(option, name, capsys):
    assert run([option, 0, "build", "apartment", "--p", 2, "--n", 4, "--k", 2]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: cap {name} must be at least 1, got 0"]


def test_main_restores_the_caps_it_found(capsys, monkeypatch):
    from grassmann_lab.config import caps
    before = caps()
    assert run(["--q-cap", "17", "--n-cap", "9", "export", "--graph", "grassmann",
                "--n", 3, "--k", 1, "--p", 17]) == 0
    assert caps() == before
    monkeypatch.setenv("GRASSMANN_LAB_CAPS", "q=19")
    assert run(["--q-cap", "17", "export", "--graph", "grassmann",
                "--n", 3, "--k", 1, "--p", 19]) == 2  # an error path restores them too
    capsys.readouterr()
    assert caps() == before


def test_caps_env_variable(tmp_path, capsys, monkeypatch):
    from grassmann_lab.config import set_caps
    monkeypatch.setenv("GRASSMANN_LAB_CAPS", "q=19")
    try:
        code = run(["export", "--graph", "grassmann", "--n", 3, "--k", 1, "--p", 19])
        capsys.readouterr()
        assert code == 0
    finally:
        set_caps(q_max=16)


def test_caps_env_skips_an_empty_part(capsys, monkeypatch):
    # the empty part between the commas is no key; both caps apply
    from grassmann_lab.config import set_caps
    monkeypatch.setenv("GRASSMANN_LAB_CAPS", "q=19,,n=9")
    try:
        for p, n in ((19, 3), (2, 9)):
            code = run(["export", "--graph", "grassmann", "--n", n, "--k", 1, "--p", p])
            assert capsys.readouterr().err == "" and code == 0
    finally:
        set_caps(q_max=16, n_max=8)


def _points_past_diameter():
    """Six points of F_2^6 whose rows end in 0, for build dual in G(5, 3)
    with m = 3."""
    rows = [[int(i == j) for j in range(6)] for i in range(5)] + [[1, 1, 1, 1, 1, 0]]
    return {"schema_version": 1, "ambient": {"kind": "primal", "dim": 6, "p": 2, "e": 1},
            "points": rows}


def _malformed(tmp_path, monkeypatch, case):
    """Write one malformed input document, or set a malformed environment;
    returns the subcommand to run."""
    path = tmp_path / "input.json"
    if case == "export-json-without-p":
        return ["export", "--graph", "grassmann", "--format", "json"]
    if case == "export-without-nk":
        return ["export", "--graph", "grassmann", "--p", 2]
    if case == "johnson-export-without-lm":
        return ["export", "--graph", "johnson", "--l", 4]
    if case == "export-without-input-or-graph":
        return ["export"]
    if case == "build-sum-with-m-1":
        return ["build", "sum", "--p", 2, "--n", 4, "--k", 2, "--m", 1, "--l", 4]
    # m above min(k, n-k), the diameter of G(n, k): refused before any
    # points are read or searched for
    if case == "build-sum-m-past-diameter":
        return ["build", "sum", "--p", 3, "--n", 6, "--k", 4, "--m", 4, "--l", 40]
    if case == "build-dual-m-past-diameter":
        return ["build", "dual", "--p", 2, "--n", 5, "--k", 3, "--m", 3]
    if case == "build-dual-points-m-past-diameter":
        # six coordinates for the k + m = 6 dimensional cover, which F^5
        # cannot hold: the rows must not be cut to five and read as m = 2
        path.write_text(json.dumps(_points_past_diameter()))
        return ["build", "dual", "--p", 2, "--n", 5, "--k", 3, "--m", 3, "--points", path]
    # each point source refuses the options it does not read
    if case.startswith("build-sum-points-with-"):
        path.write_text(json.dumps(
            {"schema_version": 1, "ambient": {"kind": "primal", "dim": 4, "p": 2, "e": 1},
             "points": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                        [1, 1, 1, 1]]}))
        extra = {"build-sum-points-with-l": ["--l", 9],
                 "build-sum-points-with-budget": ["--budget", 0]}[case]
        return ["build", "sum", "--p", 2, "--n", 4, "--k", 2, "--points", path, *extra]
    if case == "build-dual-simplex-with-budget":
        return ["build", "dual", "--p", 2, "--n", 4, "--k", 2, "--budget", 0]
    if case == "build-sum-l-0":
        return ["build", "sum", "--p", 2, "--n", 4, "--k", 2, "--l", 0]
    if case == "build-sum-l-equals-m":
        # refused before the point search, which would find such a set
        def never(*args):
            raise AssertionError("build searched for points")

        monkeypatch.setattr(cli, "search_m_independent", never)
        return ["build", "sum", "--p", 2, "--n", 4, "--k", 2, "--l", 2]
    if case == "oracle-m-0":
        return ["oracle", "--l", 4, "--m", 0, "--n", 4, "--k", 2, "--p", 2]
    if case == "export-grassmann-k-above-n":
        return ["export", "--graph", "grassmann", "--p", 2, "--n", 4, "--k", 5]
    # documents written under a raised ambient dimension cap, read under the
    # default cap of 8
    if case in ("embedding-past-n-cap", "classification-past-n-cap"):
        emb12 = tmp_path / "a12.json"
        assert run(["--n-cap", 12, "build", "apartment", "--p", 2, "--n", 12, "--k", 2,
                    "--output", emb12]) == 0
        if case == "embedding-past-n-cap":
            return ["classify", "--input", emb12]
        assert run(["--n-cap", 12, "classify", "--input", emb12, "--output", path]) == 0
        return ["rigidity", "--input", path]
    if case.startswith("caps-env-"):
        monkeypatch.setenv("GRASSMANN_LAB_CAPS", {"caps-env-unknown-key": "z=3",
                                                  "caps-env-not-integer": "q=abc"}[case])
        return ["export", "--graph", "johnson", "--l", 4, "--m", 2]
    # past the ambient dimension cap of 8, like a Grassmannian export
    if case == "build-apartment-past-n-cap":
        return ["build", "apartment", "--p", 2, "--n", 10, "--k", 2]
    if case == "build-sum-past-n-cap":
        return ["build", "sum", "--p", 2, "--n", 12, "--k", 2, "--l", 5]
    if case == "johnson-export-past-vertex-cap":
        return ["export", "--graph", "johnson", "--l", 40, "--m", 20]
    # a preset fixes its points, so it refuses the options that would choose them
    if case == "build-apartment-with-m-and-l":
        return ["build", "apartment", "--p", 2, "--n", 4, "--k", 2, "--m", 3, "--l", 9]
    if case == "build-simplex-faces-with-budget":
        return ["build", "simplex-faces", "--p", 2, "--n", 4, "--k", 2, "--budget", 5]
    if case == "build-apartment-with-points":
        return ["build", "apartment", "--p", 2, "--n", 4, "--k", 2, "--points", path]
    # an output path in a directory that does not exist
    missing = tmp_path / "no-such-dir" / "out"
    if case == "build-output-in-missing-dir":
        return ["build", "apartment", "--p", 2, "--n", 4, "--k", 2, "--output", missing]
    if case == "export-dot-in-missing-dir":
        return ["export", "--graph", "johnson", "--l", 4, "--m", 2, "--dot", missing]
    if case == "oracle-jsonl-in-missing-dir":
        return ["oracle", "--l", 3, "--m", 2, "--n", 3, "--k", 2, "--p", 2, "--jsonl", missing]
    if case.startswith("embedding-past-vertex-cap-"):
        # one map entry under params claiming all C(60, 30) vertices
        path.write_text(json.dumps(
            {"schema_version": 1, "params": {"l": 60, "m": 30, "n": 4, "k": 2, "p": 2},
             "map": [{"vertex": list(range(30)), "subspace": [[1, 0, 0, 0], [0, 1, 0, 0]]}]}))
        return [case.rpartition("-")[2], "--input", path]
    if case == "missing-file":
        return ["classify", "--input", path]
    if case == "top-level-number":
        path.write_text("5")
        return ["classify", "--input", path]
    if case == "deeply-nested":
        path.write_text("[" * 100_000 + "]" * 100_000)
        return ["classify", "--input", path]
    if case == "pointset-version" or case.startswith("points-"):
        # the five points of a 4-independent set for build sum over GF(2) in F^4
        ambient = {"kind": "primal", "dim": 4, "p": 2, "e": 1}
        points = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]]
        version = 99 if case == "pointset-version" else 1
        if case == "points-other-field":
            ambient["p"] = 3
        elif case == "points-other-dimension":
            ambient["dim"] = 3
            points = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
        elif case == "points-kind-other":
            ambient["kind"] = "other"
        elif case == "points-wrong-length":
            points[2] = points[2][:3]
        elif case == "points-entry-out-of-range":
            points[2] = [0, 0, 5, 0]
        elif case == "points-repeated":
            # over GF(3), (2, 0, 0, 0) is the point (1, 0, 0, 0) again
            ambient["p"] = 3
            points[4] = [2, 0, 0, 0]
        path.write_text(json.dumps(
            {"schema_version": version, "ambient": ambient, "points": points}))
        p = ambient["p"] if case == "points-repeated" else 2
        return ["build", "sum", "--n", 4, "--k", 2, "--p", p, "--points", path]
    emb = tmp_path / "emb.json"
    assert run(["build", "apartment", "--n", 4, "--k", 2, "--p", 2, "--output", emb]) == 0
    doc = json.loads(emb.read_text())
    if case == "vertex-true":
        entry = next(e for e in doc["map"] if e["vertex"][0] == 1)
        entry["vertex"][0] = True
    elif case == "embedding-version":
        doc["schema_version"] = 99
    elif case == "repeated-vertex":
        # a wrong plane first, the right one last: the last entry must not win
        doc["map"].append(dict(doc["map"][0]))
        doc["map"][0] = {"vertex": doc["map"][0]["vertex"],
                         "subspace": [[1, 1, 0, 0], [0, 0, 1, 0]]}
    elif case == "params-not-object":
        doc["params"] = 5
    elif case == "params-l-string":
        doc["params"]["l"] = "4"
    elif case == "map-not-list":
        doc["map"] = {}
    elif case == "map-entry-missing":
        del doc["map"][3]
    elif case == "vertex-short":
        doc["map"][0]["vertex"] = doc["map"][0]["vertex"][:1]
    elif case == "vertex-repeats-index":
        # three indices naming two: not read as the set {0, 1}
        entry = next(e for e in doc["map"] if e["vertex"] == [0, 1])
        entry["vertex"] = [0, 1, 0]
    elif case == "subspace-not-list":
        doc["map"][0]["subspace"] = 5
    elif case == "subspace-row-non-integer":
        doc["map"][0]["subspace"][0][0] = 0.5
    elif case == "subspace-wrong-dimension":
        doc["map"][0]["subspace"] = doc["map"][0]["subspace"][:1]
    elif case == "embedding-entry-out-of-range":
        doc["map"][0]["subspace"][0] = [7, 0, 0, 0]
    elif case == "embedding-l-past-ground-set-cap":
        doc["params"]["l"] = 70
    else:
        cls_path = tmp_path / "cls.json"
        assert run(["classify", "--input", emb, "--output", cls_path]) == 0
        doc = json.loads(cls_path.read_text())
        if case == "star-points-number":
            doc["star_points"] = 5
        elif case == "classification-without-points":
            doc["star_points"] = doc["top_points"] = None
        elif case == "classification-empty-row":
            doc["star_points"][0] = [[]]
        elif case == "classification-unknown-key":
            doc["descent_trace"] = 0
        elif case == "classification-params":
            # generators of J(4, 2) under another document's claims
            doc["params"].update(l=9, m=3)
            doc["case"] = "top"
            doc["is_full_apartment"] = True
        else:
            doc["schema_version"] = 99
    path.write_text(json.dumps(doc))
    return ["rigidity" if case.startswith("classification") else "classify", "--input", path]


# case -> a fragment of its one line of error, so a case that reaches
# another refusal than the one it was written for fails
MALFORMED = {
    "missing-file": "input.json: cannot read (No such file or directory)",
    "top-level-number": "input.json: expected a JSON object at the top level",
    "deeply-nested": "input.json: JSON nested too deeply",
    "star-points-number": "classification.star_points: expected a list of subspaces",
    "vertex-true": "embedding.map[2].vertex: expected indices in [0, 4)",
    "embedding-version": "embedding: unsupported schema_version, expected 1",
    "repeated-vertex": "embedding.map[6].vertex: repeats an earlier entry's vertex",
    "classification-version": "classification: unsupported schema_version, expected 1",
    "classification-params":
        "classification.case: does not match the classification of its generators",
    "pointset-version": "pointset: unsupported schema_version, expected 1",
    "export-json-without-p": "grassmann export needs --p, --n, --k",
    "export-without-nk": "grassmann export needs --n, --k",
    "build-apartment-past-n-cap": "ambient dimension 10 exceeds cap 8",
    "build-sum-past-n-cap": "ambient dimension 12 exceeds cap 8",
    "johnson-export-past-vertex-cap":
        "J(40, 20) has 137846528820 vertices, above the cap of 100000",
    "build-apartment-with-m-and-l": "build apartment fixes its points; it takes no --m, --l",
    "build-simplex-faces-with-budget":
        "build simplex-faces fixes its points; it takes no --budget",
    "build-apartment-with-points": "build apartment fixes its points; it takes no --points",
    "build-output-in-missing-dir": "no-such-dir/out: cannot write (No such file or directory)",
    "export-dot-in-missing-dir": "no-such-dir/out: cannot write (No such file or directory)",
    "oracle-jsonl-in-missing-dir": "no-such-dir/out: cannot write (No such file or directory)",
    "embedding-past-vertex-cap-classify": "J(60, 30) has 118264581564861424 vertices",
    "embedding-past-vertex-cap-rigidity": "J(60, 30) has 118264581564861424 vertices",
    "embedding-past-vertex-cap-export": "J(60, 30) has 118264581564861424 vertices",
    "points-other-field": "point set field GF(3) does not match --p/--e",
    "points-other-dimension": "point set coordinate dimension 3, expected 4",
    "points-kind-other": "pointset.ambient.kind: must be 'primal' or 'dual'",
    "points-wrong-length": "pointset.points[2]: expected 4 coordinates",
    "points-repeated": "points must be pairwise distinct",
    "points-entry-out-of-range": "pointset.points[2]: entry 5 outside GF(2)",
    "build-sum-with-m-1": "construction needs 1 < m <= min(k, n-k) = 2, got m=1",
    "build-sum-m-past-diameter": "construction needs 1 < m <= min(k, n-k) = 2, got m=4",
    "build-dual-m-past-diameter": "construction needs 1 < m <= min(k, n-k) = 2, got m=3",
    "build-dual-points-m-past-diameter":
        "construction needs 1 < m <= min(k, n-k) = 2, got m=3",
    "johnson-export-without-lm": "johnson export needs --l and --m",
    "export-without-input-or-graph": "export needs --input or --graph",
    "caps-env-unknown-key": "unknown cap 'z' in GRASSMANN_LAB_CAPS",
    "caps-env-not-integer": "cap 'q' in GRASSMANN_LAB_CAPS is not an integer",
    "params-not-object": "embedding.params: expected an object",
    "params-l-string": "embedding.params: field 'l' must be an integer",
    "map-not-list": "embedding.map: expected a list",
    "map-entry-missing": "assignment misses vertex 0x9",
    "vertex-short": "embedding.map[0].vertex: expected 2 distinct indices",
    "vertex-repeats-index": "embedding.map[0].vertex: expected 2 distinct indices",
    "subspace-not-list": "embedding.map[0].subspace: expected a list of rows",
    "subspace-row-non-integer": "embedding.map[0].subspace[0]: rows must be lists of integers",
    "subspace-wrong-dimension": "embedding.map[0].subspace: expected dimension 2",
    "embedding-entry-out-of-range": "embedding.map[0].subspace[0]: entry 7 outside GF(2)",
    "classification-without-points": "classification: needs star_points or top_points",
    "build-sum-points-with-l": "build sum reads its points from --points; it takes no --l",
    "build-sum-points-with-budget":
        "build sum reads its points from --points; it takes no --budget",
    "build-dual-simplex-with-budget":
        "build dual takes the canonical simplex; it takes no --budget",
    "embedding-past-n-cap": "ambient dimension 12 exceeds cap 8",
    "classification-past-n-cap": "ambient dimension 12 exceeds cap 8",
    "build-sum-l-0": "build sum needs --l above m=2, got --l 0",
    "build-sum-l-equals-m": "build sum needs --l above m=2, got --l 2",
    "oracle-m-0": "need 0 < m < l, got l=4, m=0",
    "export-grassmann-k-above-n": "need 0 <= k <= n, got k=5, n=4",
    "embedding-l-past-ground-set-cap": "ground set size 70 exceeds 64",
    "classification-empty-row": "row length 0 != ambient dim 4",
    "classification-unknown-key": "classification.descent_trace: not a field of a classification",
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, monkeypatch, case):
    argv = _malformed(tmp_path, monkeypatch, case)
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert MALFORMED[case] in lines[0]


@pytest.mark.parametrize("side", ["sum", "dual"])
def test_build_refuses_m_past_the_diameter_before_reading_or_searching(
        tmp_path, capsys, monkeypatch, side):
    def never(*args):
        raise AssertionError("build read or searched for points")

    monkeypatch.setattr(cli, "search_m_independent", never)
    monkeypatch.setattr(cli, "_load_pointset_rows", never)
    points = tmp_path / "points.json"
    points.write_text(json.dumps(_points_past_diameter()))
    for extra in (["--l", 40], ["--points", points]):
        capsys.readouterr()
        assert run(["build", side, "--p", 2, "--n", 5, "--k", 3, "--m", 3, *extra]) == 2
        assert capsys.readouterr().err == (
            "error: construction needs 1 < m <= min(k, n-k) = 2, got m=3\n")


@pytest.mark.parametrize("kind,n,k", [("sum", 5, 3), ("dual", 5, 2), ("sum", 5, 2),
                                      ("dual", 5, 3)])
def test_build_defaults_m_to_the_bound_it_checks(tmp_path, kind, n, k):
    # min(k, n-k) on every kind, on both sides of n = 2k
    documents = []
    for extra in ([], ["--m", min(k, n - k)]):
        path = tmp_path / f"build{len(extra)}.json"
        assert run(["build", kind, "--p", 2, "--n", n, "--k", k, "--l", 5, *extra,
                    "--output", path]) == 0
        documents.append(path.read_text())
    assert documents[0] == documents[1]
    assert json.loads(documents[0])["params"]["m"] == 2


@pytest.mark.parametrize("kind", ["simplex-faces", "dual"])
def test_isometry_passes_per_cli_request(tmp_path, capsys, monkeypatch, kind):
    # one pairwise pass per request: build checks the map it writes, and a
    # stored classification is rebuilt through the certified constructors
    # and checked once, as classify's labeled input
    from grassmann_lab import embeddings
    real = embeddings._first_defect
    calls = []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(embeddings, "_first_defect", counting)
    emb, cls = tmp_path / "emb.json", tmp_path / "cls.json"
    requests = {
        "build": ["build", kind, "--n", 4, "--k", 2, "--p", 2, "--output", emb],
        "classify embedding": ["classify", "--input", emb, "--output", cls],
        "rigidity embedding": ["rigidity", "--input", emb],
        "export embedding": ["export", "--input", emb],
        "classify classification": ["classify", "--input", cls],
        "rigidity classification": ["rigidity", "--input", cls],
        "export classification": ["export", "--input", cls],
    }
    counts = {}
    for name, argv in requests.items():
        calls.clear()
        assert run(argv) == 0
        counts[name] = len(calls)
    capsys.readouterr()
    assert counts == {name: 0 if name == "export embedding" else 1 for name in requests}


def test_one_job_import_loads_no_process_pool():
    # the pool modules are imported only by an oracle run with --jobs > 1
    env = dict(os.environ, PYTHONPATH=str(Path(grassmann_lab.__file__).parents[1]))
    code = ("import sys, grassmann_lab.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_each_command_runs_inside_one_memo_that_ends_with_it(tmp_path, monkeypatch):
    emb = tmp_path / "apartment.json"
    assert run(["build", "apartment", "--n", 4, "--k", 2, "--p", 2, "--output", emb]) == 0
    assert not memo_active()
    # exit 2: a refused request
    assert run(["build", "apartment", "--n", 4, "--k", 2, "--p", 2, "--m", 3]) == 2
    assert not memo_active()
    # exit 3: a point search out of budget (PG(3, 4) has no 6-arc)
    assert run(["build", "sum", "--p", 2, "--e", 2, "--n", 4, "--k", 2, "--l", 6,
                "--budget", 100]) == 3
    assert not memo_active()
    seen = []

    def broken(args):
        seen.append(memo_active())
        raise InternalInvariantError("planted")

    monkeypatch.setattr(cli, "cmd_classify", broken)
    assert run(["classify", "--input", emb]) == 4
    assert seen == [True]
    assert not memo_active()


# rref calls of `rigidity --input <classification>`: (without the
# per-request memo, with it).  Without it, each generator's solve recomputed
# the meet of the sources, their frame, the annihilated top points and the
# source inverse, and the loader's constructor and classifier each made
# their own sums
RIGIDITY_RREF_CALLS = {
    "gf3-star-j62-in-g63": (["build", "sum", "--p", 3, "--n", 6, "--k", 3, "--m", 2,
                             "--l", 6], 177, 125),
    "gf4-top-j62-in-g63": (["build", "dual", "--p", 2, "--e", 2, "--n", 6, "--k", 3,
                            "--m", 2, "--l", 6], 270, 146),
    "gf2-j42-in-g63": (["build", "sum", "--p", 2, "--n", 6, "--k", 3, "--m", 2,
                        "--l", 4], 114, 86),
}


@pytest.mark.parametrize("name", sorted(RIGIDITY_RREF_CALLS))
def test_rigidity_request_eliminations_are_pinned(name, tmp_path, capsys):
    build, unmemoized, pinned = RIGIDITY_RREF_CALLS[name]
    emb, cls = tmp_path / "emb.json", tmp_path / "cls.json"
    assert run([*build, "--output", emb]) == 0
    assert run(["classify", "--input", emb, "--output", cls]) == 0
    rc, calls = rref_calls(lambda: run(["rigidity", "--input", cls, "--dump-certificates"]))
    assert rc == 0
    assert calls == pinned < unmemoized
