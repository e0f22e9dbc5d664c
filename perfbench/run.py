"""Benchmark of grassmann-lab: pinned workloads timed from outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload {oracle,grid,points,table} \\
        --seed N --seconds S --trace {0,1}

One process, one thread, one caller in a closed loop: each request is sent
only after the previous one returned.  The package is imported from ``src/``
of the checkout the script lives in; without it the script exits 2.

``--trace 0`` times passes over the workload with no wrappers installed and
reports the end-to-end metrics.  Times are rescaled to a reference host speed
by a probe, a fixed loop that never calls the package, run between requests.
Pass times come from the fastest pass.  Set-up time is the median over five
fresh processes that each import the package, build the fields, make the
seeded inputs and run a warm-up request.

``--trace 1`` runs one untraced pass, then two traced passes, and reports the
per-layer metrics of the first traced pass.  The two traced passes must
produce identical deterministic counters.  Spans are written to
``.bench_out/trace/``.

Every answer is checked; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("oracle", "grid", "points", "table")
SETUP_REPEATS = 5
MIN_PASSES = 2
SETUP_TIMEOUT_S = 120
PROBE_EVERY_S = 0.5  # least time between two speed probes inside a pass
PROBE_REF_S = 0.006  # probe time on the uncontended 2-vCPU host this was tuned on


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> None:
    """Put this checkout's src/ first on the path and make sure the package
    really comes from there, not from an installed copy."""
    init = os.path.join(SRC, "grassmann_lab", "__init__.py")
    if not os.path.isfile(init):
        die(f"no package sources at {os.path.relpath(init, ROOT)}; "
            "run from a full checkout of the repository")
    sys.path.insert(0, SRC)
    import grassmann_lab
    if os.path.realpath(grassmann_lab.__file__) != os.path.realpath(init):
        die(f"imported grassmann_lab from {grassmann_lab.__file__}, not from {init}")


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def set_up(name: str, seed: int, workdir: str):
    import workloads
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.make_workload(name, seed, workdir)
    workloads.warm_up(workload)
    return workload


def _probe_work() -> int:
    # table lookups, tuple-keyed dict updates and big-int shifts and XORs:
    # the kinds of work the package spends its time on
    table = [[(a * b) % 5 for b in range(5)] for a in range(5)]
    counts: dict[tuple[int, int], int] = {}
    acc, word, mask = 0, 1, (1 << 96) - 1
    for i in range(16000):
        acc = (acc + table[i % 5][(i * 3) % 5]) % 5
        counts[(acc, i & 31)] = counts.get((acc, i & 31), 0) + 1
        word = (word ^ (word << 3) ^ i) & mask
    return acc + len(counts) + word


def probe_seconds() -> float:
    """The host's current speed, as the median time of three runs of a fixed
    pure-Python loop that never touches the package."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        _probe_work()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def time_setup(name: str, seed: int) -> float:
    """Wall time of one fresh process that sets the workload up and exits,
    rescaled to reference host speed by probes taken before and after."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", name, "--seed", str(seed)]
    before = probe_seconds()
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S, check=False)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        die(f"set-up process exited {done.returncode}: {done.stderr.decode()[-2000:]}")
    return elapsed * PROBE_REF_S / ((before + probe_seconds()) / 2)


@dataclass
class Pass:
    wall: float
    cpu: float
    ref_wall: float  # wall and cpu rescaled to the reference host speed
    ref_cpu: float
    latencies: list[float]
    outcomes: list[tuple[str, int]]  # (ok | failed | wrong, work units) per request

    @property
    def units(self) -> int:
        return sum(units for outcome, units in self.outcomes if outcome == "ok")


def run_pass(workload, draw: int = 0, tracer=None) -> Pass:
    """One timed pass over the workload's requests with the seeded inputs of
    the given draw; answers are checked after the clock stops."""
    workload.use_draw(draw)
    for entry in os.listdir(workload.workdir):
        os.remove(os.path.join(workload.workdir, entry))
    requests = workload.requests
    responses = []
    wall = cpu = ref_wall = ref_cpu = 0.0
    before = probe_seconds()
    while len(responses) < len(requests):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        while len(responses) < len(requests) and time.perf_counter() - wall0 < PROBE_EVERY_S:
            if tracer is not None:
                tracer.current_request = len(responses)
            responses.append(requests[len(responses)].execute())
        seg_wall, seg_cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        after = probe_seconds()
        scale = PROBE_REF_S / ((before + after) / 2)
        wall, cpu = wall + seg_wall, cpu + seg_cpu
        ref_wall, ref_cpu = ref_wall + seg_wall * scale, ref_cpu + seg_cpu * scale
        before = after
    outcomes = []
    for request, response in zip(workload.requests, responses):
        try:
            outcomes.append(request.check(response))
        except (ValueError, KeyError, IndexError, TypeError, OSError):
            # an answer the check cannot even read is a wrong answer only when
            # the program claimed success
            outcomes.append(("wrong" if response.rc == 0 else "failed", 0))
    return Pass(wall, cpu, ref_wall, ref_cpu, [r.seconds for r in responses], outcomes)


def report_failures(workload, passes: list[Pass]) -> None:
    seen = set()
    for p in passes:
        for request, (outcome, _) in zip(workload.requests, p.outcomes):
            if outcome != "ok" and request.label not in seen:
                seen.add(request.label)
                print(f"perfbench: {outcome} request: {request.label}", file=sys.stderr)


def latency_ms(latencies: list[float]) -> tuple[float, float]:
    """(p50, p95) request latency in milliseconds."""
    cuts = statistics.quantiles(latencies, n=20, method="inclusive")
    return cuts[9] * 1000, cuts[18] * 1000


def end_to_end(passes: list[Pass], setup_samples: list[float]) -> dict[str, float]:
    """Pass times at reference host speed, from the fastest pass; set-up time
    as a median.  See the README for why both corrections are needed."""
    fastest = min(passes, key=lambda p: p.ref_wall)
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_ref_s": fastest.ref_wall,
        "cpu_ref_s": min(p.ref_cpu for p in passes),
        "work_per_ref_s": fastest.units / fastest.ref_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def timed_run(args, workdir: str):
    """Set-up timing, then untraced passes for about --seconds."""
    setup_samples = [time_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    workload = set_up(args.workload, args.seed, workdir)
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, draw=len(passes)))
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + passes[-1].wall > args.seconds:
            break
    metrics = end_to_end(passes, setup_samples)
    latencies = [s for p in passes for s in p.latencies]
    p50, p95 = latency_ms(latencies)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"request latency p50 {p50:.1f} ms, p95 {p95:.1f} ms over "
          f"{len(latencies)} samples, work unit = {workload.unit}; "
          f"pass walls {', '.join(f'{p.wall:.3f}' for p in passes)} s; "
          f"ref walls {', '.join(f'{p.ref_wall:.3f}' for p in passes)} s; "
          f"set-up samples {', '.join(f'{s:.3f}' for s in setup_samples)} s",
          file=sys.stderr)
    return workload, passes, metrics, True


def traced_run(args, workdir: str):
    """Traced set-up, one untraced pass, two traced passes; per-layer
    metrics of the first traced pass, and the counter gate."""
    import layers
    from tracer import Tracer, wrappers_left

    problems = []
    tracer = Tracer()
    with tracer:
        workload = set_up(args.workload, args.seed, workdir)
    if wrappers_left():
        problems.append(f"wrappers left after set-up: {wrappers_left()}")
    untraced = run_pass(workload)
    with tracer:
        traced = run_pass(workload, tracer=tracer)
    repeat_tracer = Tracer()
    with repeat_tracer:
        repeat = run_pass(workload, tracer=repeat_tracer)
    if wrappers_left():
        problems.append(f"wrappers left after the traced passes: {wrappers_left()}")

    traced_agg = tracer.aggregate()
    metrics = layers.layer_metrics(tracer.aggregate(setup=True), traced_agg,
                                   traced.wall, traced.ref_wall / untraced.ref_wall - 1)
    metrics["untraced.req_p50_ms"], metrics["untraced.req_p95_ms"] = latency_ms(
        untraced.latencies)
    repeat_agg = repeat_tracer.aggregate()
    repeat_metrics = layers.layer_metrics(repeat_tracer.aggregate(setup=True), repeat_agg,
                                          repeat.wall, repeat.ref_wall / untraced.ref_wall - 1)
    del repeat_tracer  # its spans are not kept
    first = layers.counters(traced_agg, metrics)
    second = layers.counters(repeat_agg, repeat_metrics)
    if first != second:
        diff = {k: (first.get(k), second.get(k)) for k in sorted(set(first) | set(second))
                if first.get(k) != second.get(k)}
        problems.append(f"deterministic counters differ between two traced passes: {diff}")
    if not untraced.outcomes == traced.outcomes == repeat.outcomes:
        problems.append("traced and untraced passes gave different answers")

    os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
    span_file = os.path.join(OUT, "trace", f"{args.workload}.spans")
    tracer.write(span_file, [r.label for r in workload.requests])
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(tracer.start)} spans "
          f"written to {os.path.relpath(span_file, ROOT)}", file=sys.stderr)
    return workload, [untraced, traced, repeat], metrics, not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure for about this long (at least two passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, workdir)
            return 0
        spec = load_spec()
        group = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in spec[group]}
        run = traced_run if args.trace else timed_run
        workload, passes, metrics, consistent = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(units) - set(metrics))
    if missing:
        die(f"metrics not computed: {missing}")
    outcomes = [outcome for p in passes for outcome, _ in p.outcomes]
    failed = sum(outcome != "ok" for outcome in outcomes)
    report_failures(workload, passes)
    for name, unit in units.items():
        print(f"perfbench: {name} = {metrics[name]:.6g} {unit}", file=sys.stderr)
    print(f"perfbench: fail_frac = {failed}/{len(outcomes)}", file=sys.stderr)
    result = {
        "correct": consistent and "wrong" not in outcomes,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
