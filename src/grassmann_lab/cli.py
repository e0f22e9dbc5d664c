"""Command-line surface: build, classify, rigidity, oracle, export.

Exit codes: 0 success, 2 validation or precondition failure, 3 a
budgeted search that ran out of nodes without a certificate, 4 internal
invariant violation.  All outputs are deterministic: nothing is sampled.

Each command runs inside one subspaces.memoized() block, so the sums,
meets, frames and annihilators that its loader, constructor, classifier
and rigidity solver share are computed once per command.  The memo ends
with the command.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import dot as dot_export
from . import jsonio
from .config import caps, caps_from_env, check_ambient_dim, set_caps
from .embeddings import (EmbeddingInstance, build_construction, check_construction_params,
                         classify, verify_assignment)
from .errors import (BudgetExhaustedError, GrassmannLabError, InternalInvariantError,
                     ValidationError)
from .fields import GF
from .grassmannian import GrassmannianSpec
from .independence import canonical_simplex, search_m_independent
from .jsonio import dump_json, load_json
from .linalg import identity, nullspace
from .oracle import SearchConfig, cross_validate, enumerate_embeddings
from .rigidity import is_rigid
from .subspaces import Subspace, from_coords_in, lift_from_quotient, memoized

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
BUILD_BUDGET = 2_000_000


def _field(args) -> GF:
    return GF.get(args.p, args.e)


def _span_of_first(field: GF, n: int, count: int) -> Subspace:
    return Subspace.from_rows(field, n, identity(n)[:count])


def _search_points(field: GF, dim: int, independence: int, size: int,
                   budget: int):
    result = search_m_independent(field, dim, min(independence, size), size, budget)
    if result.status == "infeasible":
        raise ValidationError(
            f"no {min(independence, size)}-independent set of {size} points exists "
            f"in dimension {dim} over GF({field.q})")
    if result.status == "unknown":
        raise BudgetExhaustedError(
            f"point search exhausted its budget of {budget} nodes without a certificate")
    return result.points


def _load_pointset_rows(path: str, field: GF, dim: int):
    file_field, file_dim, rows = jsonio.pointset_from_json(load_json(path))
    if file_field != field:
        raise ValidationError(f"point set field {file_field} does not match --p/--e")
    if file_dim != dim:
        raise ValidationError(f"point set coordinate dimension {file_dim}, expected {dim}")
    return rows


def _open_output(path: str):
    """Open path for writing; a path that cannot be written is a request
    error, reported in one line."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write ({exc.strerror})") from exc


def _emit(document, path: str | None) -> None:
    """Write a document, a string or an iterator of text chunks, to path or
    to stdout, chunk by chunk as they come.  A closed stdout ends the
    output quietly: the command still returns its own exit code."""
    chunks = (document,) if isinstance(document, str) else document
    if path:
        with _open_output(path) as handle:
            handle.writelines(chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point fd 1 at devnull so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def cmd_build(args) -> int:
    field = _field(args)
    n, k = args.n, args.k
    check_ambient_dim(n)
    # a preset is the default construction of its side on fixed points
    preset = args.kind in ("apartment", "simplex-faces")
    top = args.kind == "dual" or (preset and 2 * k > n)
    m = args.m if args.m is not None else min(k, n - k)
    simplex = args.kind == "simplex-faces" or (
        args.kind == "dual" and not args.points and args.l in (None, k + m + 1))
    # each point source refuses the options it does not read
    if preset:
        source, reads = "fixes its points", ()
    elif args.points:
        source, reads = "reads its points from --points", ("m", "points")
    elif simplex:
        source, reads = "takes the canonical simplex", ("m", "l")
    else:
        source, reads = "searches for its points", ("m", "l", "budget")
    given = [f"--{flag}" for flag in ("m", "l", "points", "budget")
             if flag not in reads and getattr(args, flag) is not None]
    if given:
        raise ValidationError(f"build {args.kind} {source}; it takes no {', '.join(given)}")
    # checked before any points are read or searched for
    check_construction_params(m, k, n)
    # the points live in V/M for sums (M spans the first k - m basis
    # vectors) and in the cover N (the first k + m) for meets
    dim = k + m if top else n - (k - m)
    if args.kind == "apartment":
        rows = identity(dim)
    elif simplex:
        rows = canonical_simplex(dim, dim)
    elif args.points:
        rows = _load_pointset_rows(args.points, field, dim)
    elif args.l is None:
        raise ValidationError("sum construction needs --l or --points")
    elif args.l <= m:
        raise ValidationError(f"build {args.kind} needs --l above m={m}, got --l {args.l}")
    else:
        budget = BUILD_BUDGET if args.budget is None else args.budget
        rows = _search_points(field, dim, 2 * m, args.l, budget)
    space = _span_of_first(field, n, k + m if top else k - m)
    generators = [from_coords_in(space, nullspace(field, (row,), dim)) if top
                  else lift_from_quotient(space, (row,)) for row in rows]
    inst = build_construction(space, generators, k, top)
    # the construction rests on its certificate; this is the written map's one check
    defect = verify_assignment(inst.m, inst.assignment)
    if defect is not None:
        raise InternalInvariantError(
            f"built map is not isometric at vertices {defect.vertex_a:#x},{defect.vertex_b:#x}")
    _emit(dump_json(jsonio.embedding_to_json(inst)), args.output)
    return EXIT_OK


def _load_embedding_or_classification(path: str):
    obj = load_json(path)
    if "map" in obj:
        return jsonio.embedding_from_json(obj)
    if "case" in obj:
        return jsonio.classification_from_json(obj)
    raise ValidationError(f"{path}: neither an embedding nor a classification document")


def cmd_classify(args) -> int:
    loaded = _load_embedding_or_classification(args.input)
    cls = loaded if not isinstance(loaded, EmbeddingInstance) else classify(loaded)
    _emit(dump_json(jsonio.classification_to_json(cls)), args.output)
    return EXIT_OK


def cmd_rigidity(args) -> int:
    loaded = _load_embedding_or_classification(args.input)
    report = is_rigid(loaded)
    _emit(dump_json(jsonio.rigidity_report_to_json(report, args.dump_certificates)),
          args.output)
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg = SearchConfig(l=args.l, m=args.m, n=args.n, k=args.k, p=args.p, e=args.e,
                       budget=args.budget, symmetry_reduction=args.symmetry_reduction,
                       jobs=args.jobs)
    # an unwritable path is refused before the search, not after it
    for path in (args.jsonl, args.output):
        if path:
            _open_output(path).close()
    result = enumerate_embeddings(cfg)
    if args.jsonl:
        with _open_output(args.jsonl) as handle:
            for image in sorted(result.images):
                handle.write(json.dumps(
                    {"ids": list(image),
                     "rows": [[list(r) for r in result.spec.by_id(i).rows]
                              for i in image]}) + "\n")
    report = cross_validate(cfg, result)
    _emit(dump_json(report.summary()), args.output)
    if not report.complete:
        raise BudgetExhaustedError(
            f"enumeration exceeded the budget of {cfg.budget} nodes")
    if not report.ok:
        raise InternalInvariantError("cross-validation failed; see failures in the summary")
    return EXIT_OK


def _grassmannian(args) -> GrassmannianSpec:
    missing = [f"--{flag}" for flag in ("p", "n", "k") if getattr(args, flag) is None]
    if missing:
        raise ValidationError(f"grassmann export needs {', '.join(missing)}")
    return GrassmannianSpec(_field(args), args.n, args.k)


def cmd_export(args) -> int:
    if args.format == "json":
        if args.graph != "grassmann":
            raise ValidationError("json export provides Grassmannian index tables; "
                                  "use --graph grassmann")
        _emit(dump_json(jsonio.index_table_to_json(_grassmannian(args))), args.dot)
        return EXIT_OK
    if args.input:
        chunks = dot_export.induced_dot(_load_embedding_or_classification(args.input).image)
    elif args.graph == "johnson":
        if args.l is None or args.m is None:
            raise ValidationError("johnson export needs --l and --m")
        chunks = dot_export.johnson_dot(args.l, args.m)
    elif args.graph == "grassmann":
        chunks = dot_export.grassmann_dot(_grassmannian(args))
    else:
        raise ValidationError("export needs --input or --graph")
    _emit(chunks, args.dot)
    return EXIT_OK


def _add_field_args(parser):
    parser.add_argument("--p", type=int, required=True, help="field characteristic")
    parser.add_argument("--e", type=int, default=1, help="field extension degree")
    parser.add_argument("--n", type=int, required=True, help="ambient dimension")
    parser.add_argument("--k", type=int, required=True, help="subspace dimension")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="grassmann-lab",
        description="Exact workbench for Johnson-graph images in Grassmann graphs "
                    "over finite fields.")
    parser.add_argument("--q-cap", type=int, help="override the field order cap")
    parser.add_argument("--n-cap", type=int, help="override the ambient dimension cap")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a verified embedding")
    p_build.add_argument("kind", choices=["sum", "dual", "apartment", "simplex-faces"])
    _add_field_args(p_build)
    p_build.add_argument("--m", type=int, help="Johnson subset size (default min(k, n-k))")
    p_build.add_argument("--l", type=int, help="ground set size")
    p_build.add_argument("--points", help="point set JSON for the generators")
    p_build.add_argument("--budget", type=int,
                         help=f"node budget for generator search (default {BUILD_BUDGET:,})")
    p_build.add_argument("--output", help="write the embedding JSON here")

    p_classify = sub.add_parser("classify", help="classify an embedding or image")
    p_classify.add_argument("--input", required=True)
    p_classify.add_argument("--output")

    p_rig = sub.add_parser("rigidity", help="test extendability of all automorphisms")
    p_rig.add_argument("--input", required=True)
    p_rig.add_argument("--output")
    p_rig.add_argument("--dump-certificates", action="store_true",
                       help="include the solver's records on each refusal")

    p_oracle = sub.add_parser("oracle", help="exhaustively enumerate embeddings")
    _add_field_args(p_oracle)
    p_oracle.add_argument("--l", type=int, required=True)
    p_oracle.add_argument("--m", type=int, required=True)
    p_oracle.add_argument("--budget", type=int, default=10_000_000)
    p_oracle.add_argument("--jobs", type=int, default=1)
    p_oracle.add_argument("--symmetry-reduction", action="store_true")
    p_oracle.add_argument("--jsonl", help="stream images to this JSON-lines file")
    p_oracle.add_argument("--output", help="write the summary JSON here")

    p_export = sub.add_parser("export", help="emit DOT graphs")
    p_export.add_argument("--input", help="embedding or classification JSON")
    p_export.add_argument("--graph", choices=["grassmann", "johnson"])
    p_export.add_argument("--p", type=int)
    p_export.add_argument("--e", type=int, default=1)
    p_export.add_argument("--n", type=int)
    p_export.add_argument("--k", type=int)
    p_export.add_argument("--l", type=int)
    p_export.add_argument("--m", type=int)
    p_export.add_argument("--format", choices=["dot", "json"], default="dot",
                          help="dot graphs, or the json index table of a Grassmannian")
    p_export.add_argument("--dot", help="write the output here instead of stdout")
    return parser


def main(argv=None) -> int:
    """Run one command inside one memo; the caps in force before the call
    are in force after it, whatever --q-cap, --n-cap or GRASSMANN_LAB_CAPS
    set."""
    args = build_parser().parse_args(argv)
    found = caps()
    try:
        caps_from_env()
        set_caps(q_max=args.q_cap, n_max=args.n_cap)
        with memoized():
            # looked up per call, so a cmd_* function rebound on the module runs
            return globals()[f"cmd_{args.command}"](args)
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except GrassmannLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        set_caps(q_max=found.q_max, n_max=found.n_max,
                 graph_vertex_max=found.graph_vertex_max)


if __name__ == "__main__":
    sys.exit(main())
