"""Per-layer metrics from a traced pass, and the deterministic counters that
two passes over the same inputs must reproduce exactly."""

from __future__ import annotations

from tracer import Aggregate

MODULES = ("cli", "config", "dot", "embeddings", "fields", "grassmannian", "independence",
           "johnson", "jsonio", "linalg", "oracle", "rigidity", "subspaces")

# counters from return values, gated together with every span's call count
RESULT_COUNTERS = ("oracle.nodes", "oracle.images", "independence.nodes",
                   "rigidity.candidates", "embeddings.verify_pairs",
                   "cli.exit.0", "cli.exit.2", "cli.exit.3", "cli.exit.4")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: Aggregate, run: Aggregate, traced_wall: float,
                  overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric.  ``run`` covers the traced pass; ``setup``
    the traced set-up before it, which is where fields are built."""
    m: dict[str, float] = {}

    def calls(*names: str) -> int:
        return sum(run.by_name(name)[0] for name in names)

    def self_s(*names: str) -> float:
        return sum(run.by_name(name)[1] for name in names)

    for fn in ("rank", "rref", "nullspace"):
        m[f"linalg.{fn}.calls"] = calls(f"linalg.{fn}")
        m[f"linalg.{fn}.self_s"] = self_s(f"linalg.{fn}")
    m["linalg.inverse.calls"] = calls("linalg.inverse")

    m["subspaces.from_rows.calls"] = calls("subspaces.from_rows")
    m["subspaces.annihilator.calls"] = calls("subspaces.annihilator")

    for name in ("spec", "distance_matrix", "distance_sets"):
        m[f"grassmannian.{name}.self_s"] = self_s(f"grassmannian.{name}")
    m["grassmannian.distance.calls"] = calls("grassmannian.distance")

    searches = run.results_of("independence.search_m_independent")
    nodes = sum(n for n, _ in searches)
    m["independence.search.calls"] = calls("independence.search_m_independent")
    m["independence.nodes"] = nodes
    m["independence.knodes_per_s"] = _ratio(
        nodes, run.total_s_of("independence.search_m_independent")) / 1000
    for status in ("found", "infeasible", "unknown"):
        m[f"independence.{status}"] = sum(s == status for _, s in searches)

    builds = ("embeddings.build_sum_construction", "embeddings.build_dual_construction")
    m["embeddings.classify.calls"] = calls("embeddings.classify")
    m["embeddings.classify.self_s"] = self_s("embeddings.classify")
    m["embeddings.build.calls"] = calls(*builds)
    m["embeddings.build.self_s"] = self_s(*builds)
    m["embeddings.verify.calls"] = calls("embeddings.verify_assignment")
    pairs = run.distance_calls_under.get("embeddings.verify_assignment", 0)
    m["embeddings.verify_pairs"] = pairs
    m["embeddings.verify_pairs_per_classify"] = _ratio(pairs, m["embeddings.classify.calls"])

    solves = run.results_of("rigidity.solve_semilinear_mapping")
    candidates = sum(searched for searched, _, _ in solves)
    m["rigidity.is_rigid.calls"] = calls("rigidity.is_rigid")
    m["rigidity.solve.calls"] = len(solves)
    m["rigidity.candidates"] = candidates
    m["rigidity.hit_frac"] = _ratio(sum(hit for _, hit, _ in solves), candidates)
    m["rigidity.unknown"] = sum(not resolved for _, _, resolved in solves)

    enumerations = run.results_of("oracle.enumerate_embeddings")
    oracle_nodes = sum(n for n, _ in enumerations)
    images = sum(i for _, i in enumerations)
    enumerate_self = self_s("oracle.enumerate_embeddings")
    m["oracle.enumerate.self_s"] = enumerate_self
    m["oracle.nodes"] = oracle_nodes
    m["oracle.images"] = images
    m["oracle.nodes_per_image"] = _ratio(oracle_nodes, images)
    m["oracle.knodes_per_s"] = _ratio(oracle_nodes, enumerate_self) / 1000
    m["oracle.cross_validate.self_s"] = self_s("oracle.cross_validate")
    m["oracle.enumerate_apartments.self_s"] = self_s("oracle.enumerate_apartments")

    m["jsonio.load.self_s"] = self_s("jsonio.load_json")
    m["jsonio.dump.self_s"] = self_s("jsonio.dump_json")
    m["cli.main.self_s"] = self_s("cli.main")
    exits = run.results_of("cli.main")
    for code in (0, 2, 3, 4):
        m[f"cli.exit.{code}"] = exits.count(code)

    m["fields.gf.constructions"] = setup.by_name("fields.gf")[0] + calls("fields.gf")
    m["fields.gf.self_s"] = setup.by_name("fields.gf")[1] + self_s("fields.gf")

    modules = run.by_module()
    for module in MODULES:
        mod_calls, mod_self = modules.get(module, (0, 0.0))
        m[f"{module}.calls"] = mod_calls
        m[f"{module}.self_s"] = mod_self
        m[f"share.{module}"] = _ratio(mod_self, traced_wall)
    m["share.harness"] = _ratio(traced_wall - run.root_s, traced_wall)
    m["trace.overhead_frac"] = overhead_frac
    return m


def counters(run: Aggregate, metrics: dict[str, float]) -> dict[str, int]:
    """The deterministic counters of one traced pass: every span name's
    call count plus the result-derived counts."""
    out = {f"{name}.calls": run.calls[nid] for nid, name in enumerate(run.names)}
    out.update({name: metrics[name] for name in RESULT_COUNTERS})
    return out
