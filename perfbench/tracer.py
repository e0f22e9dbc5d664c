"""Span tracing for the benchmark's traced passes, from outside the package.

``Tracer.install`` wraps every public function of every ``grassmann_lab``
module, plus the few methods the per-layer metrics name, and rebinds each
wrapper at every module attribute that holds the original: several modules
import names directly (``oracle.classify``, ``embeddings.distance``, ...), so
patching only the defining module would miss their calls.  ``remove``
restores every binding.  Generator functions are left alone, since a span
around them would close before their work runs.

Each call records one span: name, start, end, parent span and request id.
Spans stay in compact arrays in memory until the run writes them out.  A few
functions also record a summary of their return value (search nodes, solver
candidates, exit codes), so the counters come from public results.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
import types

PACKAGE = "grassmann_lab"

# (module, class, method, span name)
METHODS = (
    ("fields", "GF", "__init__", "fields.gf"),
    ("subspaces", "Subspace", "from_rows", "subspaces.from_rows"),
    ("grassmannian", "GrassmannianSpec", "__init__", "grassmannian.spec"),
    ("grassmannian", "GrassmannianSpec", "distance_matrix", "grassmannian.distance_matrix"),
    ("grassmannian", "GrassmannianSpec", "distance_sets", "grassmannian.distance_sets"),
)

# span name -> summary of the return value kept with the span
RESULT_SUMMARIES = {
    "cli.main": lambda rc: rc,
    "oracle.enumerate_embeddings": lambda r: (r.nodes, len(r.images)),
    "independence.search_m_independent": lambda r: (r.nodes, r.status),
    "rigidity.solve_semilinear_mapping":
        lambda r: (sum(d.searched for d in r[1]), r[0] is not None, r[2]),
}

MARK = "__perfbench_span__"


def package_modules() -> list[types.ModuleType]:
    """The package and every submodule, all imported now: a module first
    imported while wrappers are installed would bind the wrappers for good."""
    package = importlib.import_module(PACKAGE)
    return [package] + [importlib.import_module(f"{PACKAGE}.{info.name}")
                        for info in pkgutil.iter_modules(package.__path__)]


def wrappers_left() -> list[str]:
    """Bindings that still hold a tracing wrapper."""
    left = []
    for mod in package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                left.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, type):
                left += [f"{mod.__name__}.{attr}.{name}" for name, member in vars(value).items()
                         if hasattr(getattr(member, "__func__", member), MARK)]
    return left


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("H")
        self.parent = array.array("i")
        self.request = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.results: dict[int, object] = {}  # span index -> result summary
        self.current_request = -1  # -1 while setting up
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def _wrap(self, fn, label: str):
        nid = self._name_id(label)
        summarize = RESULT_SUMMARIES.get(label)
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, results, stack = self.start, self.end, self.results, self._stack
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(tracer.current_request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                starts[idx] = t0
                stack.pop()
            if summarize is not None:
                results[idx] = summarize(result)
            return result

        setattr(traced, MARK, label)
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        wrapped: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(value)):
                    wrapped[id(value)] = (value, self._wrap(value, f"{short}.{attr}"))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                entry = wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, entry[1])
        for modname, clsname, method, label in METHODS:
            owner = getattr(sys.modules[f"{PACKAGE}.{modname}"], clsname)
            raw = vars(owner)[method]
            if isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrap(raw.__func__, label))
            else:
                replacement = self._wrap(raw, label)
            self._patches.append((owner, method, raw))
            setattr(owner, method, replacement)

    def remove(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # analysis -------------------------------------------------------------

    def aggregate(self, setup: bool = False) -> "Aggregate":
        """Calls, self time and total time per span name, over the set-up
        spans (request -1) or over the request spans."""
        count = len(self.start)
        starts, ends, parents, requests = self.start, self.end, self.parent, self.request
        child = array.array("d", bytes(8 * count))
        for i in range(count):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        agg = Aggregate(self.names)
        distance = self._ids.get("grassmannian.distance")
        for i in range(count):
            if (requests[i] < 0) != setup:
                continue
            nid = self.name[i]
            dur = ends[i] - starts[i]
            agg.calls[nid] += 1
            agg.self_s[nid] += dur - child[i]
            agg.total_s[nid] += dur
            p = parents[i]
            if p < 0:
                agg.root_s += dur
            elif nid == distance:
                under = self.names[self.name[p]]
                agg.distance_calls_under[under] = agg.distance_calls_under.get(under, 0) + 1
            summary = self.results.get(i)
            if summary is not None:
                agg.results.setdefault(self.names[nid], []).append(summary)
        return agg

    def write(self, path: str, request_labels: list[str]) -> None:
        """Header as JSON on the first line, then the five span columns as
        raw arrays in the order, type codes and byte order the header gives."""
        columns = [("name", self.name), ("parent", self.parent), ("request", self.request),
                   ("start", self.start), ("end", self.end)]
        header = {"spans": len(self.start), "names": self.names, "requests": request_labels,
                  "columns": [[key, col.typecode, col.itemsize] for key, col in columns],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for _, col in columns:
                col.tofile(handle)


class Aggregate:
    def __init__(self, names: list[str]):
        self.names = names
        self.calls = [0] * len(names)
        self.self_s = [0.0] * len(names)
        self.total_s = [0.0] * len(names)
        self.root_s = 0.0  # time covered by top-level spans
        self.results: dict[str, list] = {}  # span name -> result summaries
        self.distance_calls_under: dict[str, int] = {}  # direct caller -> distance calls

    def by_name(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of one span name."""
        if name not in self.names:
            return 0, 0.0
        nid = self.names.index(name)
        return self.calls[nid], self.self_s[nid]

    def total_s_of(self, name: str) -> float:
        return self.total_s[self.names.index(name)] if name in self.names else 0.0

    def results_of(self, name: str) -> list:
        return self.results.get(name, [])

    def by_module(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) summed over each module's span names."""
        out: dict[str, tuple[int, float]] = {}
        for nid, name in enumerate(self.names):
            module = name.partition(".")[0]
            calls, self_s = out.get(module, (0, 0.0))
            out[module] = (calls + self.calls[nid], self_s + self.self_s[nid])
        return out
