"""Self-tests of the benchmark: seeded inputs, answer invariance, tracing.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import workloads
from tracer import Tracer, wrappers_left

from conftest import BENCH, ROOT


def labels(name, seed, workdir):
    return [r.label for r in workloads.make_workload(name, seed, str(workdir)).requests]


@pytest.mark.parametrize("name", ["oracle", "grid", "points", "table"])
def test_inputs_are_deterministic_for_a_seed(name, tmp_path):
    assert labels(name, 5, tmp_path) == labels(name, 5, tmp_path)


def test_grid_coordinates_depend_only_on_seed_and_draw():
    assert workloads.grid_coordinates(5, 0) == workloads.grid_coordinates(5, 0)
    assert workloads.grid_coordinates(5, 0) != workloads.grid_coordinates(6, 0)
    assert workloads.grid_coordinates(5, 0) != workloads.grid_coordinates(5, 1)


@pytest.mark.parametrize("seed, draw", [(11, 0), (12, 3)])
def test_change_of_coordinates_keeps_every_grid_answer(seed, draw, tmp_path):
    workload = workloads.make_workload("grid", seed, str(tmp_path))
    workload.use_draw(draw)
    outcomes = [(r.label, r.check(r.execute())) for r in workload.requests]
    assert [o for o in outcomes if o[1][0] != "ok"] == []
    assert sum(units for _, (_, units) in outcomes) == len(workloads.grid_instances())
    moved = 0
    for inst in workloads.grid_instances():
        stem = tmp_path / "{kind}_{q}_{n}_{k}_{l}".format(**inst)
        built = json.loads((tmp_path / f"{stem.name}.build.json").read_text())
        shifted = json.loads((tmp_path / f"{stem.name}.moved.json").read_text())
        moved += built["map"] != shifted["map"]
    assert moved > len(workloads.grid_instances()) // 2


def test_tracer_returns_results_unchanged_and_leaves_no_wrapper(tmp_path):
    argv = ["build", "apartment", "--n", "4", "--k", "2", "--p", "3"]
    plain = workloads.run_cli(argv)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            tracer.current_request = 0
            assert workloads.run_cli(argv) == plain
        assert wrappers_left() == []
        agg = tracer.aggregate()
        assert agg.by_name("cli.main")[0] == 1 and agg.results_of("cli.main") == [0]
        assert agg.by_name("linalg.rref")[0] > 0
        counts.append(agg.calls)
    assert counts[0] == counts[1]


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
