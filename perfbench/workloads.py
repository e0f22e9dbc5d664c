"""The benchmark's four workloads: their requests, inputs and answer checks.

Every request goes into the program through a public entry point: the CLI
(``cli.main(argv)`` in-process) or, for the one library request, the
``oracle.enumerate_embeddings`` function.  Both are looked up on their module
at call time, so the traced pass sees the tracer's wrappers and the untraced
pass sees the plain functions.

A request's outcome is one of three:

* ``ok``     -- the expected exit code and the expected answer;
* ``failed`` -- an unexpected exit code or an exception;
* ``wrong``  -- the program reported success but the answer is wrong.

Failed and wrong requests both count in ``failed``; only wrong answers make
a run incorrect.  The README in this directory says why each workload exists.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from grassmann_lab import cli, oracle
from grassmann_lab.fields import GF

HERE = os.path.dirname(os.path.abspath(__file__))
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2)}  # q -> (p, e)


@dataclass
class Response:
    rc: int | None  # exit code; None when the call raised
    out: Any
    err: str
    seconds: float


@dataclass
class Request:
    label: str
    call: Callable[[], tuple[int, Any, str]]
    check: Callable[[Response], tuple[str, int]]  # -> (outcome, work units)
    prepare: Callable[[], None] | None = None  # input glue, outside the latency

    def execute(self) -> Response:
        if self.prepare is not None:
            try:
                self.prepare()
            except Exception:  # noqa: BLE001 - reported as a failed request
                return Response(None, None, traceback.format_exc(), 0.0)
        start = time.perf_counter()
        try:
            rc, out, err = self.call()
        except Exception:  # noqa: BLE001 - reported as a failed request
            rc, out, err = None, None, traceback.format_exc()
        return Response(rc, out, err, time.perf_counter() - start)


@dataclass
class Workload:
    name: str
    unit: str  # what work_per_s counts
    fields: tuple[int, ...]  # field orders used, built and warmed in set-up
    requests: list[Request]
    workdir: str
    redraw: Callable[[int], None] | None = None  # picks the seeded inputs of a pass

    def use_draw(self, draw: int) -> None:
        if self.redraw is not None:
            self.redraw(draw)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def field_args(q: int) -> list[str]:
    p, e = FIELDS[q]
    return ["--p", str(p), "--e", str(e)]


# independently derived counts ----------------------------------------------


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-subspaces of F_q^n, from the product formula."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def q_integer(k: int, q: int) -> int:
    return (q ** k - 1) // (q - 1)


def frame_count(n: int, q: int) -> int:
    """Unordered projective frames of n independent points in F_q^n."""
    gl = math.prod(q ** n - q ** i for i in range(n))
    return gl // ((q - 1) ** n * math.factorial(n))


# oracle ----------------------------------------------------------------------


def _oracle_cli(l: int, n: int, k: int, images: int, histogram: dict[str, int],
                reduced: bool = False) -> Request:
    argv = ["oracle", "--l", str(l), "--m", "2", "--n", str(n), "--k", str(k),
            "--p", "2", "--jobs", "1"] + (["--symmetry-reduction"] if reduced else [])

    def check(resp: Response) -> tuple[str, int]:
        if resp.rc != 0:
            return "failed", 0
        summary = json.loads(resp.out)
        good = (summary["ok"] is True and summary["complete"] is True
                and summary["image_count"] == images
                and summary["tag_histogram"] == histogram)
        return ("ok", images) if good else ("wrong", 0)

    label = f"oracle l={l} n={n} k={k}" + (" --symmetry-reduction" if reduced else "")
    return Request(label, lambda: run_cli(argv), check)


def _oracle_library(l: int, n: int, k: int, images: int) -> Request:
    def call():
        cfg = oracle.SearchConfig(l=l, m=2, n=n, k=k, p=2, jobs=1)
        result = oracle.enumerate_embeddings(cfg)
        return 0, (len(result.images), result.complete), ""

    def check(resp: Response) -> tuple[str, int]:
        if resp.rc != 0:
            return "failed", 0
        return ("ok", images) if resp.out == (images, True) else ("wrong", 0)

    return Request(f"enumerate_embeddings l={l} n={n} k={k}", call, check)


def oracle_requests() -> list[Request]:
    apartments = frame_count(4, 2)  # 840: every image at n = 2k is an apartment
    return [
        _oracle_cli(4, 4, 2, apartments, {"parabolic-apartment": apartments}),
        _oracle_cli(5, 4, 2, 336, {"star": 168, "top": 168}),
        # Exits 4 at the seed: cross_validate compares the reduced image set
        # (144, not orbit-closed) with all 840 apartments.  Kept on purpose.
        _oracle_cli(4, 4, 2, 144, {"parabolic-apartment": 144}, reduced=True),
        _oracle_library(4, 5, 2, 26040),
    ]


# grid ------------------------------------------------------------------------


def grid_instances() -> list[dict]:
    """The grid points whose generator search finds a set, with the answers
    pinned at the seed commit."""
    with open(os.path.join(HERE, "grid_expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def random_invertible(F: GF, n: int, rng: random.Random) -> list[list[int]]:
    """L @ U with a column permutation: unit lower-triangular L and upper-
    triangular U with a nonzero diagonal, so the product is invertible."""
    lower = [[1 if i == j else (rng.randrange(F.q) if j < i else 0) for j in range(n)]
             for i in range(n)]
    upper = [[rng.randrange(1, F.q) if i == j else (rng.randrange(F.q) if j > i else 0)
              for j in range(n)] for i in range(n)]
    prod = [[functools.reduce(F.add, (F.mul(lower[i][t], upper[t][j]) for t in range(n)), 0)
             for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return [[row[perm[j]] for j in range(n)] for row in prod]


def change_coordinates(F: GF, doc: dict, matrix: list[list[int]], twist: int) -> dict:
    """Apply x -> frobenius^twist(x) @ matrix to every subspace of an
    embedding document.  The rows stay a spanning set, not an RREF basis;
    the loader canonicalizes them."""
    def move(row):
        row = [F.frobenius(x, twist) for x in row]
        return [functools.reduce(F.add, (F.mul(x, matrix[i][j]) for i, x in enumerate(row)), 0)
                for j in range(len(matrix))]

    moved = dict(doc)
    moved["map"] = [{"vertex": entry["vertex"], "subspace": [move(r) for r in entry["subspace"]]}
                    for entry in doc["map"]]
    return moved


def _grid_requests(inst: dict, coordinates: list, index: int, workdir: str) -> list[Request]:
    q, n, k, l, kind = inst["q"], inst["n"], inst["k"], inst["l"], inst["kind"]
    F = GF.get(*FIELDS[q])
    tag = f"{kind} q={q} n={n} k={k} l={l}"
    stem = os.path.join(workdir, f"{kind}_{q}_{n}_{k}_{l}")
    built, moved, classified, report = (stem + s for s in (
        ".build.json", ".moved.json", ".cls.json", ".rig.json"))
    build_argv = ["build", kind] + field_args(q) + [
        "--n", str(n), "--k", str(k), "--m", "2", "--l", str(l), "--output", built]

    def read(path):
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def check_build(resp):
        if resp.rc != 0:
            return "failed", 0
        doc = read(built)
        good = (doc["params"] == {"l": l, "m": 2, "n": n, "k": k,
                                  "p": FIELDS[q][0], "e": FIELDS[q][1]}
                and len(doc["map"]) == math.comb(l, 2))
        return ("ok", 0) if good else ("wrong", 0)

    def prepare_classify():
        matrix, twist = coordinates[index]
        with open(moved, "w", encoding="utf-8") as handle:
            json.dump(change_coordinates(F, read(built), matrix, twist), handle)

    def check_classify(resp):
        if resp.rc != 0:
            return "failed", 0
        doc = read(classified)
        good = (doc["case"] == inst["case"] and len(doc["m_space"]) == inst["m_dim"]
                and len(doc["n_space"]) == inst["n_dim"])
        return ("ok", 0) if good else ("wrong", 0)

    def check_rigidity(resp):
        if resp.rc != 0:
            return "failed", 0
        doc = read(report)
        good = all(doc[key] == inst[key]
                   for key in ("is_rigid", "rigidity_case", "unique_pgl_extension"))
        # one unit per instance, credited when its last request succeeds
        return ("ok", 1) if good else ("wrong", 0)

    return [
        Request(f"build {tag}", lambda: run_cli(build_argv), check_build),
        Request(f"classify {tag}",
                lambda: run_cli(["classify", "--input", moved, "--output", classified]),
                check_classify, prepare=prepare_classify),
        Request(f"rigidity {tag}",
                lambda: run_cli(["rigidity", "--input", classified, "--dump-certificates",
                                 "--output", report]),
                check_rigidity),
    ]


def grid_coordinates(seed: int, draw: int) -> list[tuple[list[list[int]], int]]:
    """One change of coordinates (matrix, Frobenius twist) per grid instance,
    in grid order, determined by the seed and the draw number."""
    rng = random.Random(f"grid:{seed}:{draw}")
    out = []
    for inst in grid_instances():
        F = GF.get(*FIELDS[inst["q"]])
        out.append((random_invertible(F, inst["n"], rng), rng.randrange(F.e)))
    return out


def grid_requests(seed: int, workdir: str) -> tuple[list[Request], Callable[[int], None]]:
    """The grid's requests, and the function that switches them to another
    draw of coordinates.  The cost of some rigidity solves depends on the
    coordinates (the n = 2k duality search takes 0.04 s or 0.4 s), so each
    timed pass of a run takes the next draw, and the figures a run reports
    depend on many draws rather than on one seed's luck."""
    coordinates = grid_coordinates(seed, 0)

    def redraw(draw: int) -> None:
        coordinates[:] = grid_coordinates(seed, draw)

    requests = []
    for index, inst in enumerate(grid_instances()):
        requests += _grid_requests(inst, coordinates, index, workdir)
    return requests, redraw


# points ----------------------------------------------------------------------


def _points_request(q: int, n: int, l: int, rc: int, message: str,
                    budget: int | None = None) -> Request:
    argv = ["build", "sum"] + field_args(q) + ["--n", str(n), "--k", "2", "--l", str(l)]
    if budget is not None:
        argv += ["--budget", str(budget)]

    def check(resp):
        if resp.rc == 0:
            return "wrong", 0  # a "found" set contradicts the certified answer
        if resp.rc != rc:
            return "failed", 0
        good = message in resp.err and not resp.out
        return ("ok", 1) if good else ("wrong", 0)

    return Request(f"build sum q={q} n={n} k=2 l={l}", lambda: run_cli(argv), check)


def points_requests() -> list[Request]:
    return [
        _points_request(3, 4, 6, 2, "no 4-independent set of 6 points exists "
                                    "in dimension 4 over GF(3)"),
        _points_request(2, 5, 7, 2, "no 4-independent set of 7 points exists "
                                    "in dimension 5 over GF(2)"),
        # PG(3,4) has no 6-arc, so within any budget the answer is never "found".
        _points_request(4, 4, 6, 3, "exhausted its budget of 100000 nodes",
                        budget=100_000),
    ]


# table -----------------------------------------------------------------------


def _table_request(q: int, n: int, k: int) -> Request:
    argv = ["export", "--graph", "grassmann"] + field_args(q) + ["--n", str(n), "--k", str(k)]
    vertices = gaussian_binomial(n, k, q)
    edges = vertices * q * q_integer(k, q) * q_integer(n - k, q) // 2

    def check(resp):
        if resp.rc != 0:
            return "failed", 0
        lines = resp.out.splitlines()
        good = (lines[0] == f"graph grassmann_{n}_{k}_q{q} {{" and lines[-1] == "}"
                and sum(" [label=" in line for line in lines) == vertices
                and sum(" -- " in line for line in lines) == edges)
        return ("ok", vertices * (vertices - 1) // 2) if good else ("wrong", 0)

    return Request(f"export G({n},{k},{q})", lambda: run_cli(argv), check)


def table_requests() -> list[Request]:
    return [_table_request(2, 6, 3), _table_request(3, 5, 2), _table_request(4, 4, 2)]


# assembly --------------------------------------------------------------------

UNITS = {"oracle": "certified images", "grid": "fully processed instances",
         "points": "searches", "table": "vertex pairs"}
WORKLOAD_FIELDS = {"oracle": (2,), "grid": (2, 3, 4), "points": (2, 3, 4), "table": (2, 3, 4)}


def make_workload(name: str, seed: int, workdir: str) -> Workload:
    """The workload's requests for this seed; equal seeds give equal inputs.
    Only the grid's changes of coordinates depend on the seed: the other
    workloads are pinned by their parameters, and a fixed request order keeps
    their memory layout, and so peak_rss_mb, the same from seed to seed."""
    redraw = None
    if name == "oracle":
        requests = oracle_requests()
    elif name == "grid":
        requests, redraw = grid_requests(seed, workdir)
    elif name == "points":
        requests = points_requests()
    elif name == "table":
        requests = table_requests()
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, UNITS[name], WORKLOAD_FIELDS[name], requests, workdir, redraw)


def warm_up(workload: Workload) -> None:
    """Build every field the workload uses and run one small request per
    field, so imports, field tables and argument parsing are ready."""
    for q in workload.fields:
        GF.get(*FIELDS[q])
        out = os.path.join(workload.workdir, f"warmup_q{q}.json")
        rc, _, err = run_cli(["build", "apartment"] + field_args(q)
                             + ["--n", "4", "--k", "2", "--output", out])
        if rc != 0:
            raise RuntimeError(f"warm-up request failed with exit {rc}: {err}")
