"""Command-line surface.

Subcommands: ``eval`` (score one matrix), ``rank`` (rank a directory of
matrices), ``converge`` (tau curves and convergence distributions),
``simulate`` (coin-mimic cohorts and separation experiments), ``rubric``
(signals to categorical matrix).

stdout carries exactly one JSON document (or TSV when requested);
diagnostics go to stderr. Exit codes: 0 success, 2 input error, 3 method
undefined at the requested trial count, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import bootstrap, io, rubric, simulate
from .bayes import evaluate_performance
from .errors import (
    BayesEvalError,
    InputError,
    InternalInvariantError,
    MethodUndefinedError,
)
from .methods import parse_method, parse_methods
from .model import UNIFORM, WeightVector
from .ranking import rank_with_ci, rank_without_ci, ScoredModel

_Z_REPORT_LEVELS = (1.645, 1.96)
_DEFAULT_CONVERGE_METHODS = "bayes,pass@2,pass@4,pass@8"


def _parse_weights(text: str | None) -> WeightVector | None:
    if text is None:
        return None
    try:
        return WeightVector(tuple(float(p) for p in text.split(",")))
    except ValueError as exc:
        raise InputError(f"cannot parse weights {text!r}: {exc}") from None


def _load_dir(dirpath: str, num_categories: int | None):
    """Load every CSV in a directory as (model_id, matrix), shared C."""
    paths = sorted(Path(dirpath).glob("*.csv"))
    if not paths:
        raise InputError(f"no .csv files in {dirpath}")
    loaded = [(p.stem, io.load_results_csv(p, num_categories)) for p in paths]
    shared = max(mx.num_categories for _, mx in loaded)
    # cells already lie in [0, C] of their own file, so a wider shared C
    # needs no second validation
    return [(mid, dataclasses.replace(mx, num_categories=shared)) for mid, mx in loaded]


def _emit(args, result) -> None:
    sys.stdout.buffer.write(io.emit_report(result, getattr(args, "format", "json")))


def _cohort_from_args(args) -> list[simulate.CoinModel]:
    if getattr(args, "spec", None):
        with open(args.spec) as fh:
            raw = json.load(fh)
        spec = simulate.CohortSpec(
            questions=int(raw.get("questions", 30)),
            seed=int(raw.get("seed", getattr(args, "seed", 0))),
        )
        return simulate.generate_cohort(spec)
    preset = getattr(args, "preset", None) or "reference"
    if preset != "reference":
        raise InputError(f"unknown preset {preset!r}; available: reference")
    return simulate.reference_cohort()


# -- subcommand implementations ------------------------------------------------

def _cmd_eval(args) -> None:
    labels = io.load_label_map(args.labels) if args.labels else None
    matrix = io.load_results_csv(args.results, args.categories, labels)
    weights = _parse_weights(args.weights)
    method = parse_method(args.method, weights)
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
    items = _load_dir(args.results_dir, args.categories)
    weights = _parse_weights(args.weights)
    method = parse_method(args.method, weights)
    scored = [ScoredModel(mid, *method.score_with_sigma(mx)) for mid, mx in items]
    report = {
        "method": method.name,
        "models": [mid for mid, _ in items],
        "M": items[0][1].questions,
        "N": items[0][1].trials,
        "without_ci": rank_without_ci(scored).to_report(),
    }
    if args.ci != "off":
        z = float(args.ci)
        report["z_threshold"] = z
        report["with_ci"] = rank_with_ci(scored, z).to_report()
    _emit(args, report)


def _cmd_converge(args) -> None:
    items = dict(_load_dir(args.results_dir, None))
    methods = parse_methods(args.methods)
    if args.format == "tsv" and len(methods) != 1:
        raise InputError("TSV output requires exactly one --methods entry")
    scheme = {"col": "column", "row": "row"}.get(args.scheme, args.scheme)
    reps_tau = args.replicates or 10_000
    reps_conv = args.replicates or 100_000
    n_max = args.nmax
    plan_tau = bootstrap.ResamplePlan(scheme, reps_tau, args.seed, n_max)
    plan_conv = bootstrap.ResamplePlan(scheme, reps_conv, args.seed, n_max)
    if args.format == "tsv":
        # scan and reduce only the artifact emitted
        name = methods[0].name
        if args.artifact == "tau":
            result = bootstrap.tau_curves(items, methods, plan_tau, threads=args.threads)
        else:
            result = bootstrap.convergence_distributions(
                items, methods, plan_conv, threads=args.threads
            )
        _emit(args, result[name])
        return
    # one pass and one gold ranking for both artifacts and the report
    scan = bootstrap.scan_replicates(items, methods, plan_tau, plan_conv, threads=args.threads)
    curves = bootstrap.tau_curves(items, methods, plan_tau, scan=scan)
    convs = bootstrap.convergence_distributions(items, methods, plan_conv, scan=scan)
    report = {
        "scheme": scheme,
        "seed": args.seed,
        "n_max": scan.n_max,
        "replicates_tau": reps_tau,
        "replicates_convergence": reps_conv,
        "gold": scan.gold.to_report(),
        "methods": {
            m.name: {
                "tau_curve": curves[m.name].to_report(),
                "convergence": convs[m.name].to_report(),
            }
            for m in methods
        },
    }
    _emit(args, report)


def _cmd_simulate(args) -> None:
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
    cohort = {m.model_id: m for m in _cohort_from_args(args)}
    try:
        a, b = cohort[args.a], cohort[args.b]
    except KeyError as exc:
        raise InputError(f"unknown model {exc.args[0]!r}; cohort has {sorted(cohort)}") from None
    grid = [int(p) for p in args.ngrid.split(",") if p.strip()]
    result = simulate.separation_experiment(a, b, grid, args.replicates, args.seed)
    _emit(args, result)


def _load_schema(spec: str) -> rubric.Schema:
    if spec.endswith(".json"):
        with open(spec) as fh:
            return rubric.Schema.from_config(json.load(fh))
    return rubric.schema_by_name(spec)


def _cmd_rubric(args) -> None:
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

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayeseval",
        description="Posterior-based evaluation scores, rankings, and convergence analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    default_threads = int(os.environ.get("BAYESEVAL_THREADS", "1"))

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
                   help="default: 10^4 for tau curves, 10^5 for convergence PMFs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nmax", type=int, help="trial budget (default: full N)")
    p.add_argument("--threads", type=int, default=default_threads)
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

    p = sub.add_parser("rubric", help="map attempt signals to a categorical matrix")
    p.add_argument("--signals", required=True, help="JSONL of per-attempt signals")
    p.add_argument("--schema", required=True,
                   help=f"a declarative schema JSON file, or one of: "
                        f"{', '.join(rubric.schema_names())}")
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
    except (InputError, BayesEvalError, OSError) as exc:
        _print_error(exc)
        return 2
    return 0


def _print_error(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
