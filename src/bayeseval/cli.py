"""Command-line surface.

Subcommands: ``eval`` (score one matrix), ``rank`` (rank a directory of
matrices), ``converge`` (tau curves and convergence distributions),
``simulate`` (coin-mimic cohorts and separation experiments), ``rubric``
(signals to categorical matrix).

stdout carries exactly one JSON document (or TSV when requested);
diagnostics go to stderr. Exit codes: 0 success, 2 input error (or an
allocation the machine cannot make), 3 method undefined at the requested
trial count, 4 internal invariant breach.

A CLI process (``python -m bayeseval.cli`` or the ``bayeseval`` script,
both through ``run()``) runs without automatic cyclic garbage collection
and skips the full collection at exit. That is safe because the cyclic
garbage a command leaves is fixed: one ``main()`` call leaves only its
argparse parser (364 objects), whatever the command or the count of its
replicates or records (pinned in ``tests/test_cli.py``). ``main()`` and
``import bayeseval.cli`` leave the caller's collector as it was.

``python -m bayeseval.cli`` also sets ``OPENBLAS_NUM_THREADS=1`` unless
the caller set it, before numpy loads: numpy's bundled OpenBLAS would
otherwise start a worker thread that spins on another core, and no BLAS
call here is large enough to use it.
"""

from __future__ import annotations

import gc
import os
import sys

if __name__ == "__main__":
    gc.disable()  # before numpy loads: see run()
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import dataclasses
import json
from pathlib import Path

from . import io
from .errors import (
    BayesEvalError,
    InputError,
    InternalInvariantError,
    MethodUndefinedError,
)
from .model import UNIFORM, WeightVector, check_same_grid

# bayes, methods, bootstrap, ranking, simulate and rubric are imported by the
# handlers that run them, so each command loads only its own modules

_Z_REPORT_LEVELS = (1.645, 1.96)
_DEFAULT_CONVERGE_METHODS = "bayes,pass@2,pass@4,pass@8"


def _method_and_weights(args):
    """``--method`` and ``--weights``; only ``bayes`` and ``avg`` take weights."""
    from .methods import parse_method

    if args.weights is None:
        return parse_method(args.method), None
    try:
        weights = WeightVector(tuple(float(p) for p in args.weights.split(",")))
    except ValueError as exc:
        raise InputError(f"cannot parse weights {args.weights!r}: {exc}") from None
    method = parse_method(args.method, weights)
    if not method.moment_based:
        raise InputError(f"--weights applies only to the bayes and avg methods, not {method.name}")
    return method, weights


def _load_dir(dirpath: str, num_categories: int | None):
    """Load every CSV in a directory as (model_id, matrix), shared C, on
    one grid of questions and trials."""
    paths = sorted(Path(dirpath).glob("*.csv"))
    if not paths:
        raise InputError(f"no .csv files in {dirpath}")
    loaded = [(p.stem, io.load_results_csv(p, num_categories)) for p in paths]
    shared = max(mx.num_categories for _, mx in loaded)
    # cells already lie in [0, C] of their own file, so a wider shared C
    # needs no second validation
    items = [(mid, dataclasses.replace(mx, num_categories=shared)) for mid, mx in loaded]
    check_same_grid([mx for _, mx in items])
    return items


def _emit(args, result) -> None:
    # an unbuffered stdout (PYTHONUNBUFFERED) is a raw file, whose write
    # may take only part of the report: a reader gone raises on the rest
    report = memoryview(io.emit_report(result, getattr(args, "format", "json")))
    while report:
        report = report[sys.stdout.buffer.write(report):]


def _spec_int(raw: dict, key: str, default: int, path) -> int:
    value = io.json_int(raw.get(key, default))
    if value is None:
        raise InputError(f"{path}: {key} must be an integer, got {raw[key]!r}")
    return value


def _cohort_from_args(args) -> list:
    """The coin models named by ``--spec`` or ``--preset``."""
    from . import simulate

    if getattr(args, "spec", None):
        raw = io.load_json(args.spec)
        if not isinstance(raw, dict):
            raise InputError(f"{args.spec}: cohort spec must be a JSON object")
        spec = simulate.CohortSpec(
            questions=_spec_int(raw, "questions", 30, args.spec),
            seed=_spec_int(raw, "seed", getattr(args, "seed", 0), args.spec),
        )
        return simulate.generate_cohort(spec)
    preset = getattr(args, "preset", None) or "reference"
    if preset != "reference":
        raise InputError(f"unknown preset {preset!r}; available: reference")
    return simulate.reference_cohort()


# -- subcommand implementations ------------------------------------------------

def _cmd_eval(args) -> None:
    from .bayes import evaluate_performance

    labels = io.load_label_map(args.labels) if args.labels else None
    matrix = io.load_results_csv(args.results, args.categories, labels)
    method, weights = _method_and_weights(args)
    if method.kind == "bayes":
        prior = (
            io.load_prior_csv(args.prior, matrix.num_categories)
            if args.prior
            else UNIFORM
        )
        summary = evaluate_performance(
            matrix, prior, weights or WeightVector.identity(matrix.num_categories)
        )
        report = {
            "method": method.name,
            "score": summary.mu,
            "sigma": summary.sigma,
            "ci_half_widths": {str(z): z * summary.sigma for z in _Z_REPORT_LEVELS},
            "M": summary.questions,
            "N": summary.trials,
            "C": summary.max_category,
            "D": summary.prior_depth,
        }
    else:
        if args.prior:
            raise InputError("--prior only applies to the bayes method")
        report = {
            "method": method.name,
            "score": method.score(matrix),
            "M": matrix.questions,
            "N": matrix.trials,
            "C": matrix.max_category,
        }
    _emit(args, report)


def _cmd_rank(args) -> None:
    from .ranking import ScoredModel, rank_with_ci, rank_without_ci

    try:
        z = None if args.ci == "off" else float(args.ci)
    except ValueError:
        raise InputError(f"--ci must be a z threshold or 'off', got {args.ci!r}") from None
    items = _load_dir(args.results_dir, args.categories)
    method, _ = _method_and_weights(args)
    scored = [ScoredModel(mid, *method.score_with_sigma(mx)) for mid, mx in items]
    report = {
        "method": method.name,
        "models": [mid for mid, _ in items],
        "M": items[0][1].questions,
        "N": items[0][1].trials,
        "without_ci": rank_without_ci(scored).to_report(),
    }
    if z is not None:
        report["z_threshold"] = z
        report["with_ci"] = rank_with_ci(scored, z).to_report()
    _emit(args, report)


def _cmd_converge(args) -> None:
    from . import bootstrap
    from .methods import parse_methods

    items = dict(_load_dir(args.results_dir, None))
    methods = parse_methods(args.methods)
    if args.format == "tsv" and len(methods) != 1:
        raise InputError("TSV output requires exactly one --methods entry")
    scheme = {"col": "column", "row": "row"}.get(args.scheme, args.scheme)
    if args.replicates is None:
        reps_tau, reps_conv = 10_000, 100_000
    else:
        # 0 and below reach ResamplePlan, which rejects them before any draw
        reps_tau = reps_conv = args.replicates
    plan_tau = bootstrap.ResamplePlan(scheme, reps_tau, args.seed, args.nmax)
    # one trial budget and one gold ranking for both artifacts and the report
    n_max = plan_tau.budget(next(iter(items.values())).trials)
    gold = bootstrap.gold_table(items, n_max)
    if args.format == "tsv":
        # scan and reduce only the artifact emitted
        name = methods[0].name
        if args.artifact == "tau":
            result = bootstrap.tau_curves(items, methods, plan_tau, gold=gold)
        else:
            plan_conv = bootstrap.ResamplePlan(scheme, reps_conv, args.seed, args.nmax)
            result = bootstrap.convergence_distributions(items, methods, plan_conv, gold=gold)
        _emit(args, result[name])
        return
    # both artifacts from one scan: each replicate is drawn once
    curves = bootstrap.tau_curves(items, methods, plan_tau, gold=gold,
                                  convergence_replicates=reps_conv)
    report = {
        "scheme": scheme,
        "seed": args.seed,
        "n_max": n_max,
        "replicates_tau": reps_tau,
        "replicates_convergence": reps_conv,
        "gold": gold.to_report(),
        "methods": {
            m.name: {
                "tau_curve": curves[m.name].to_report(),
                "convergence": curves[m.name].convergence.to_report(),
            }
            for m in methods
        },
    }
    _emit(args, report)


def _cmd_simulate(args) -> None:
    from . import _rng, simulate

    _rng.check_seed(args.seed)  # echoed in the report even when no stream is keyed
    if args.out_dir is not None and args.trials is None:
        raise InputError("--out-dir writes sampled matrices: it needs --trials N")
    cohort = _cohort_from_args(args)
    gold = simulate.gold_ranking(cohort)
    report = {
        "seed": args.seed,
        "questions": cohort[0].questions,
        "models": [{"model": m.model_id, "true_mean": m.true_mean} for m in cohort],
        "gold": gold.to_report(),
    }
    if args.trials is not None:
        if args.trials < 1:
            raise InputError("--trials must be >= 1")
        if args.seed + len(cohort) > 1 << 64:
            raise InputError(f"--seed {args.seed}: model i is keyed by seed + i, so {len(cohort)} "
                             f"models need --seed <= 2^64 - {len(cohort)}")
        matrices = {
            m.model_id: simulate.sample_trials(m, args.trials, args.seed + i)
            for i, m in enumerate(cohort)
        }
        if args.out_dir:
            out = Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            for mid, mx in matrices.items():
                io.save_results_csv(mx, out / f"{mid}.csv")
            report["matrix_dir"] = str(out)
        else:
            report["matrices"] = {
                mid: {"trials": mx.trials, "rows": mx.cells.tolist()}
                for mid, mx in matrices.items()
            }
    _emit(args, report)


def _cmd_separation(args) -> None:
    from . import simulate

    cohort = {m.model_id: m for m in _cohort_from_args(args)}
    try:
        a, b = cohort[args.a], cohort[args.b]
    except KeyError as exc:
        raise InputError(f"unknown model {exc.args[0]!r}; cohort has {sorted(cohort)}") from None
    try:
        grid = [int(p) for p in args.ngrid.split(",") if p.strip()]
    except ValueError:
        raise InputError(f"--ngrid must be comma-separated integers, got {args.ngrid!r}") from None
    result = simulate.separation_experiment(a, b, grid, args.replicates, args.seed)
    _emit(args, result)


def _load_schema(spec: str):
    """A shipped schema by name, or one declared in a ``.json`` file."""
    from . import rubric

    if not spec.endswith(".json"):
        return rubric.schema_by_name(spec)
    config = io.load_json(spec)
    try:
        return rubric.Schema.from_config(config)
    except InputError as exc:
        raise InputError(f"{spec}: {exc}") from None


def _cmd_rubric(args) -> None:
    from . import rubric

    schema = _load_schema(args.schema)
    signals = io.load_signals_jsonl(args.signals)
    for w in signals.warnings:
        print(f"warning: {w}", file=sys.stderr)
    thresholds = rubric.compute_thresholds(signals.table)
    matrix = rubric.build_matrix(signals.table, schema, thresholds)
    report = {
        "schema": schema.name,
        "num_categories": schema.num_categories,
        "default_weights": list(schema.default_weights),
        "thresholds": thresholds.to_report(),
        "M": matrix.questions,
        "N": matrix.trials,
    }
    if args.emit_matrix:
        io.save_results_csv(matrix, args.emit_matrix)
        report["matrix_path"] = args.emit_matrix
    else:
        report["rows"] = matrix.cells.tolist()
    _emit(args, report)


# -- parser ---------------------------------------------------------------------

class _SchemaHelpFormatter(argparse.HelpFormatter):
    """Appends the shipped schema names to ``--schema``'s help text.

    The names come from ``rubric.SCHEMATA`` when help is formatted, so
    building the parser does not import ``rubric``.
    """

    def _get_help_string(self, action):
        if action.dest != "schema":
            return action.help
        from .rubric import SCHEMATA

        return action.help + ", ".join(s.name for s in SCHEMATA)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayeseval",
        description="Posterior-based evaluation scores, rankings, and convergence analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="score a single results matrix")
    p.add_argument("--results", required=True, help="results CSV (question_id,t1,...)")
    p.add_argument("--weights", help="comma-separated category weights")
    p.add_argument("--prior", help="prior matrix CSV (bayes only)")
    p.add_argument("--categories", type=int, help="category count C+1 (default: inferred)")
    p.add_argument("--labels", help="JSON sidecar mapping category names to indices")
    p.add_argument("--method", default="bayes",
                   help="bayes | avg | pass@K | pass^K | naive^K | gpass@K:TAU | mgpass@K")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("rank", help="rank one results CSV per model")
    p.add_argument("--results-dir", required=True)
    p.add_argument("--method", default="bayes")
    p.add_argument("--weights")
    p.add_argument("--categories", type=int)
    p.add_argument("--ci", default="1.645",
                   help="z threshold for CI ties, or 'off' for point ranking only")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("converge", help="tau curves and convergence@n distributions")
    p.add_argument("--results-dir", required=True)
    p.add_argument("--methods", default=_DEFAULT_CONVERGE_METHODS)
    p.add_argument("--scheme", default="row", choices=["col", "row", "column"])
    p.add_argument("--replicates", type=int,
                   help="at least 1 (default: 10^4 for tau curves, 10^5 for convergence PMFs)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nmax", type=int, help="trial budget (default: full N)")
    p.add_argument("--format", default="json", choices=["json", "tsv"])
    p.add_argument("--artifact", default="tau", choices=["tau", "convergence"],
                   help="which series the TSV format emits")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("simulate", help="coin-mimic cohorts with known ground truth")
    sim_sub = p.add_subparsers(dest="sim_command")
    p.add_argument("--preset", help="built-in cohort name (reference)")
    p.add_argument("--spec", help="cohort spec JSON file")
    p.add_argument("--trials", type=int, help="also sample an N-trial matrix per model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", help="write sampled matrices as CSVs here")
    p.set_defaults(func=_cmd_simulate)

    ps = sim_sub.add_parser("separation", help="probability of correct pairwise order vs N")
    ps.add_argument("--a", required=True, help="model id expected to rank above")
    ps.add_argument("--b", required=True)
    ps.add_argument("--ngrid", required=True, help="comma-separated trial counts")
    ps.add_argument("--replicates", type=int, default=10_000)
    # accepted on either side of "separation"; SUPPRESS keeps an omitted
    # option from overwriting the value given to "simulate"
    ps.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    ps.add_argument("--preset", default=argparse.SUPPRESS)
    ps.add_argument("--spec", default=argparse.SUPPRESS)
    ps.add_argument("--format", default="json", choices=["json", "tsv"])
    ps.set_defaults(func=_cmd_separation)

    p = sub.add_parser("rubric", help="map attempt signals to a categorical matrix",
                       formatter_class=_SchemaHelpFormatter)
    p.add_argument("--signals", required=True, help="JSONL of per-attempt signals")
    p.add_argument("--schema", required=True,
                   help="a declarative schema JSON file, or one of: ")
    p.add_argument("--emit-matrix", help="write the categorical matrix CSV here")
    p.set_defaults(func=_cmd_rubric)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except MethodUndefinedError as exc:
        _print_error(exc)
        return 3
    except InternalInvariantError as exc:
        _print_error(exc)
        return 4
    except (InputError, BayesEvalError, OSError, MemoryError) as exc:
        _print_error(exc)
        return 2
    return 0


def _print_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


def run() -> None:
    """Process entry of ``python -m bayeseval.cli`` and the ``bayeseval`` script.

    Runs ``main()`` with automatic cyclic collection off, then freezes every
    object so the collection at interpreter exit scans none of them.
    """
    gc.disable()
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
