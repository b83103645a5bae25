"""Workloads: seeded inputs, the operations run on them, and their checks.

Every workload runs the same nine operations (large-matrix adds a
weighted ``eval --method bayes``), so every end-to-end metric is measured
on every workload: ``simulate``, ``rank --ci 1.645``,
``converge --scheme row`` and ``--scheme col``, the API-only CI-aware
convergence (``ci_child.py``), ``simulate separation``, ``eval --method
bayes``, three pass-family ``eval`` calls and ``rubric --schema
format-aware --emit-matrix``. ``simulate`` and ``simulate separation`` read
no input and are identical everywhere. The other seven read the
workload's own inputs, so the workloads differ in which module dominates
each operation:

paper-cohort
    The reference cohort, 11 models x 30 questions x 80 trials, binary,
    sampled exactly as ``simulate --seed`` samples it: the paper's own
    scale. Time goes to ``bootstrap``, ``methods.scores_from_counts``,
    ``_rng`` streams and ``ranking``, and to interpreter start-up. CSV
    input is 11 x 2,400 cells and the rubric reads 2,400 records (model
    LLM10's trials), so an ``io`` or ``rubric`` change should barely move
    it.
large-matrix
    Large inputs. Three binary models of 6,000 x 100, two of them sharing
    one success-probability vector (a planted tie): ``rank`` and the four
    ``eval`` methods spend their time in ``io`` parse and validate,
    ``model.tally``, ``bayes`` and whole-matrix ``passk``, and none of them
    touches ``bootstrap``. Four models x 250 questions x 40 trials of JSONL
    signals, 10,000 records each, again two sharing probabilities: about
    10% of records omit the verifier fields (the warning path) and about
    2% set ``repeated_pattern`` (category 0). ``rubric`` reads them in turn
    and writes five-category matrices; the bootstrap operations run
    ``bayes,avg`` on those matrices, so they take the general-C path with
    four count planes per cell, few models, many questions and no pass
    family. ``eval_bayes_s`` adds a second part here, ``eval --method bayes
    --weights 0,0,1,2,3`` on one of these matrices.

Which optimisation each workload exercises and which it bypasses: a
replicate-engine change moves ``converge_*_s``/``converge_ci_s`` but never
``rank_s`` or ``eval_*_s``; a CSV or pass@k change moves ``rank_s`` and
``eval_*_s`` on large-matrix and barely on paper-cohort; a binary-only
bootstrap shortcut that slows general C shows on large-matrix only; a
rubric or JSONL change moves ``rubric_s`` on large-matrix (10,000 records)
far more than on paper-cohort (2,400).

All trial counts (80, 100 and 40; 320 in separation) stay far below the
int16 limit of 32,767 trials of the bootstrap count tensors. That overflow
is pinned by a property test in the test suite, not here.
"""

from __future__ import annotations

import math
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from bayeseval import simulate
from bayeseval.simulate import REFERENCE_MEANS

from oracle import (
    BAYES_RTOL,
    PASSK_RTOL,
    bayes_exact,
    check_convergence,
    check_posterior,
    check_rank_table,
    check_tau_curve,
    close,
    parse_report,
    passk_exact,
    read_matrix_csv,
    write_matrix_csv,
)

CLI = ["-m", "bayeseval.cli"]
CI_CHILD = str(Path(__file__).resolve().with_name("ci_child.py"))
CI_Z = 1.645
REF_TRIALS = 80
REF_IDS = [f"LLM{i + 1}" for i in range(len(REFERENCE_MEANS))]
SEP_GRID = (40, 80, 160, 320)
PASSK_METHODS = ("pass@8", "mgpass@8", "gpass@8:1/2")
RUBRIC_WEIGHTS = (0, 0, 1, 2, 3)      # weighted categorical eval on rubric matrices

# Operation sizes. "full" is what the benchmark measures; "tiny" is for the
# self-test and keeps every operation and check.
PARAMS = {
    "paper-cohort": {
        "full": dict(conv_reps=100, ci_reps=10, sep_reps=1000),
        "tiny": dict(conv_reps=4, ci_reps=1, sep_reps=20),
    },
    "large-matrix": {
        "full": dict(models=3, questions=6_000, trials=100, cat_models=4,
                     cat_questions=250, cat_trials=40, conv_reps=40, ci_reps=2,
                     sep_reps=1000),
        "tiny": dict(models=3, questions=300, trials=20, cat_models=4,
                     cat_questions=40, cat_trials=12, conv_reps=4, ci_reps=1,
                     sep_reps=20),
    },
}


@dataclass
class Op:
    """One closed-loop operation: a child argv and a check of its output."""

    metric: str                                   # end-to-end metric it counts toward
    label: str                                    # unique within a workload
    argv: list[str]                               # after the interpreter
    check: Callable[[bytes, bytes], list[str]]    # (stdout, stderr) -> problems
    part: str = ""                                # metrics sum the means of their parts


@dataclass
class Signals:
    path: Path
    expected: np.ndarray     # format-aware category of every generated record
    planted: int             # records with repeated_pattern = 1
    omitted: int             # records without verifier fields


@dataclass(eq=False)
class MatrixDir:
    path: Path
    cells: dict[str, np.ndarray]     # model id -> cells, in the CLI's load order
    num_categories: int
    _oracles: dict = field(default_factory=dict, repr=False)

    @property
    def ids(self) -> list[str]:
        return list(self.cells)

    @property
    def trials(self) -> int:
        return next(iter(self.cells.values())).shape[1]

    def oracle(self, n: int | None = None, weights: tuple[int, ...] | None = None):
        """Exact means and float (mu, sigma) per model on the first ``n`` trials.

        ``weights`` default to identity, as the CLI uses when none are given.
        """
        key = n, weights
        if key not in self._oracles:
            w = weights or range(self.num_categories)
            exact, floats = {}, {}
            for mid, cells in self.cells.items():
                mu, var = bayes_exact(cells[:, :n], self.num_categories, w)
                exact[mid] = mu
                floats[mid] = (float(mu), math.sqrt(float(var)))
            self._oracles[key] = exact, floats
        return self._oracles[key]


@dataclass(eq=False)
class Inputs:
    workload: str
    seed: int
    root: Path
    p: dict
    ref: dict[str, np.ndarray] = field(default_factory=dict)
    dirs: dict[str, MatrixDir] = field(default_factory=dict)
    signals: list[Signals] = field(default_factory=list)
    _slots: list = field(default_factory=list, repr=False)

    @property
    def out(self) -> Path:
        return self.root / "out"


# -- input generation -------------------------------------------------------------

def _write_dir(path: Path, cells: dict[str, np.ndarray], num_categories: int) -> MatrixDir:
    path.mkdir(parents=True)
    for mid, c in cells.items():
        write_matrix_csv(path / f"{mid}.csv", c)
    ordered = {p.stem: cells[p.stem] for p in sorted(path.glob("*.csv"))}
    return MatrixDir(path, ordered, num_categories)


def _coin_matrices(rng, prefix: str, models: int, questions: int, trials: int, seed: int):
    """Binary matrices from ``simulate.sample_trials``; models 1 and 2 share probabilities.

    Model i samples its trials with seed ``seed + i``.
    """
    out = {}
    shared = rng.beta(6.0, 4.0, size=questions)
    for i in range(models):
        probs = shared if i < 2 else rng.beta(5.8, 4.2, size=questions)
        model = simulate.CoinModel(f"{prefix}{i + 1}", probs)
        out[model.model_id] = simulate.sample_trials(model, trials, seed + i).cells
    return out


def _write_signals(path: Path, rng, correct: np.ndarray) -> Signals:
    """JSONL attempt signals whose correctness is the given binary grid.

    Writes question-major records and returns the format-aware category
    each record must get: 0 when ``repeated_pattern`` is set or the
    off-task probability reaches 0.5, else 1 + boxed + 2 * correct.
    """
    shape = correct.shape
    boxed = rng.random(shape) < 0.75
    repeated = rng.random(shape) < 0.02
    omitted = rng.random(shape) < 0.10
    ratio = np.round(rng.uniform(0.02, 0.95, shape), 6)
    prompt = np.round(rng.uniform(0.5, 3.0, shape), 6)
    completion = np.round(rng.uniform(0.2, 2.5, shape), 6)
    verifier = np.round(rng.dirichlet((2.0, 2.0, 0.6), size=shape), 6)
    offtask = np.where(omitted, 0.0, verifier[..., 2])
    expected = np.where(repeated | (offtask >= 0.5), 0, 1 + boxed + 2 * correct)
    cols = [a.tolist() for a in (boxed * 1.0, correct * 1.0, ratio, repeated * 1, prompt, completion)]
    verifier_rows = verifier.tolist()
    lines = []
    for q in range(shape[0]):
        for t in range(shape[1]):
            box, ok, tr, rep, pb, cb = (c[q][t] for c in cols)
            rec = (
                f'{{"question_id":"q{q + 1}","trial":{t + 1},"has_box":{box!r},'
                f'"is_correct":{ok!r},"token_ratio":{tr!r},"repeated_pattern":{rep},'
                f'"prompt_bpt":{pb!r},"completion_bpt":{cb!r}'
            )
            if not omitted[q, t]:
                a, b, c = verifier_rows[q][t]
                rec += f',"compass_context_A":{a!r},"compass_context_B":{b!r},"compass_context_C":{c!r}'
            lines.append(rec + "}\n")
    with open(path, "w") as fh:
        fh.writelines(lines)
    return Signals(path, expected.astype(np.int64), int(repeated.sum()), int(omitted.sum()))


def setup(workload: str, root: Path, seed: int, scale: str = "full") -> Inputs:
    """Generate every input of ``workload`` from ``seed`` under ``root``."""
    inp = Inputs(workload, seed, root, PARAMS[workload][scale])
    p = inp.p
    (root / "in").mkdir(parents=True)
    inp.out.mkdir()
    inp.ref = {
        m.model_id: simulate.sample_trials(m, REF_TRIALS, seed + i).cells
        for i, m in enumerate(simulate.reference_cohort())
    }
    rng = np.random.default_rng([seed, sorted(PARAMS).index(workload)])
    if workload == "paper-cohort":
        inp.dirs["main"] = _write_dir(root / "in" / "cohort", inp.ref, 2)
        inp.signals.append(_write_signals(root / "in" / "LLM10.jsonl", rng, inp.ref["LLM10"]))
    elif workload == "large-matrix":
        # trial seeds apart from the reference cohort's seed + 0..10
        cells = _coin_matrices(rng, "m", p["models"], p["questions"], p["trials"], seed + 100)
        inp.dirs["main"] = _write_dir(root / "in" / "big", cells, 2)
        correct = _coin_matrices(rng, "c", p["cat_models"], p["cat_questions"],
                                 p["cat_trials"], seed + 200)
        for mid, c in correct.items():
            inp.signals.append(_write_signals(root / "in" / f"{mid}.jsonl", rng, c))
        expected = {mid: sig.expected for mid, sig in zip(correct, inp.signals)}
        inp.dirs["boot"] = _write_dir(root / "in" / "cat", expected, 5)
    else:
        raise ValueError(workload)
    return inp


def warm_up(env: dict) -> None:
    """One untimed CLI call so the first timed child does not pay cold caches."""
    subprocess.run(
        [sys.executable, *CLI, "simulate", "--preset", "reference"],
        env=env, stdout=subprocess.DEVNULL, check=True,
    )


# -- operations -------------------------------------------------------------------

def _checked(check):
    """Parse the JSON report before calling ``check(report, stderr)``."""
    def run(stdout: bytes, stderr: bytes) -> list[str]:
        report, problems = parse_report(stdout)
        return problems or check(report, stderr)
    return run


def _simulate(inp: Inputs) -> Op:
    out = inp.out / "sim"
    exact = dict(zip(REF_IDS, REFERENCE_MEANS))
    floats = {mid: (mu, 0.0) for mid, mu in exact.items()}

    def check(rep, _):
        if [m.get("model") for m in rep.get("models", [])] != REF_IDS:
            return ["simulate: unexpected model list"]
        problems = [
            f"simulate: true mean of {m['model']} is {m.get('true_mean')!r}"
            for m, want in zip(rep["models"], REFERENCE_MEANS)
            if not close(m.get("true_mean"), want, BAYES_RTOL)
        ]
        problems += check_rank_table(rep.get("gold", {}), REF_IDS, exact, floats, None)
        for mid, cells in inp.ref.items():
            _, got = read_matrix_csv(out / f"{mid}.csv")
            if not np.array_equal(got, cells):
                problems.append(f"simulate: {mid}.csv differs from sample_trials(seed + i)")
        return problems

    argv = [*CLI, "simulate", "--preset", "reference", "--trials", str(REF_TRIALS),
            "--seed", str(inp.seed), "--out-dir", str(out)]
    return Op("simulate_s", "simulate", argv, _checked(check))


def _separation(inp: Inputs) -> Op:
    reps = inp.p["sep_reps"]
    gap = REFERENCE_MEANS[9] - REFERENCE_MEANS[8]

    def check(rep, _):
        problems = []
        if (rep.get("model_a"), rep.get("model_b"), rep.get("replicates")) != ("LLM10", "LLM9", reps):
            problems.append("separation: wrong pair or replicate count")
        if not close(rep.get("true_gap"), gap, BAYES_RTOL):
            problems.append(f"separation: true_gap {rep.get('true_gap')!r} != {gap!r}")
        points = rep.get("points", [])
        if [pt.get("N") for pt in points] != list(SEP_GRID):
            problems.append("separation: wrong N grid")
        for pt in points:
            pc, z = pt.get("p_correct"), pt.get("mean_abs_z")
            if not (isinstance(pc, (int, float)) and 0 <= pc <= 1):
                problems.append(f"separation: p_correct {pc!r}")
            if not (isinstance(z, (int, float)) and 0 <= z < math.inf):
                problems.append(f"separation: mean_abs_z {z!r}")
        return problems

    argv = [*CLI, "simulate", "separation", "--a", "LLM10", "--b", "LLM9",
            "--ngrid", ",".join(map(str, SEP_GRID)), "--replicates", str(reps),
            "--seed", str(inp.seed)]
    return Op("separation_s", "separation", argv, _checked(check))


def _rank(inp: Inputs, d: MatrixDir) -> Op:
    def check(rep, _):
        if rep.get("models") != d.ids:
            return [f"rank: models {rep.get('models')} != {d.ids}"]
        exact, floats = d.oracle()
        return (
            check_rank_table(rep.get("without_ci", {}), d.ids, exact, floats, None)
            + check_rank_table(rep.get("with_ci", {}), d.ids, exact, floats, CI_Z)
        )

    argv = [*CLI, "rank", "--results-dir", str(d.path), "--ci", str(CI_Z),
            "--categories", str(d.num_categories)]
    return Op("rank_s", "rank", argv, _checked(check))


def _eval_bayes(inp: Inputs, d: MatrixDir, mid: str, weights: tuple[int, ...] | None = None) -> Op:
    """``eval --method bayes``; with ``weights`` a weighted categorical eval."""
    cells = d.cells[mid]

    def check(rep, _):
        mu, sigma = d.oracle(None, weights)[1][mid]
        problems = check_posterior(rep.get("score"), rep.get("sigma"), mu, sigma, "eval bayes")
        for z, half in rep.get("ci_half_widths", {}).items():
            if not close(half, float(z) * sigma, BAYES_RTOL):
                problems.append(f"eval bayes: half width {half!r} at z={z}")
        if (rep.get("M"), rep.get("N"), rep.get("C"), rep.get("D")) != (*cells.shape, d.num_categories - 1, 0):
            problems.append("eval bayes: wrong M/N/C/D")
        return problems

    argv = [*CLI, "eval", "--results", str(d.path / f"{mid}.csv"), "--method", "bayes",
            "--categories", str(d.num_categories)]
    if weights is None:
        return Op("eval_bayes_s", "eval_bayes", argv, _checked(check), part="identity")
    argv += ["--weights", ",".join(map(str, weights))]
    return Op("eval_bayes_s", "eval_bayes_weighted", argv, _checked(check), part="weighted")


def _eval_passk(inp: Inputs, d: MatrixDir, mid: str, method: str) -> Op:
    cells = d.cells[mid]
    want = float(passk_exact(cells, method))

    def check(rep, _):
        problems = []
        if rep.get("method") != method:
            problems.append(f"eval: method {rep.get('method')!r} != {method!r}")
        if not close(rep.get("score"), want, PASSK_RTOL):
            problems.append(f"eval {method}: score {rep.get('score')!r} != math.comb oracle {want!r}")
        if (rep.get("M"), rep.get("N")) != cells.shape:
            problems.append(f"eval {method}: wrong M/N")
        return problems

    argv = [*CLI, "eval", "--results", str(d.path / f"{mid}.csv"), "--method", method]
    return Op("eval_passk_s", f"eval_{method}", argv, _checked(check), part=method)


def _converge(inp: Inputs, d: MatrixDir, scheme: str, methods: str | None) -> Op:
    reps = inp.p["conv_reps"]
    budget = d.trials
    names = (methods or "bayes,pass@2,pass@4,pass@8").split(",")

    def check(rep, _):
        want = ({"col": "column"}.get(scheme, scheme), inp.seed, budget, reps, reps)
        got = tuple(rep.get(k) for k in ("scheme", "seed", "n_max", "replicates_tau",
                                         "replicates_convergence"))
        if got != want:
            return [f"converge: header {got} != {want}"]
        exact, floats = d.oracle(budget)
        problems = check_rank_table(rep.get("gold", {}), d.ids, exact, floats, None)
        for name in names:
            res = rep.get("methods", {}).get(name, {})
            problems += check_tau_curve(res.get("tau_curve", {}), reps, budget, name)
            problems += check_convergence(res.get("convergence", {}), reps, budget, name)
        return problems

    argv = [*CLI, "converge", "--results-dir", str(d.path), "--scheme", scheme,
            "--replicates", str(reps), "--seed", str(inp.seed)]
    argv += ["--methods", methods] if methods else []
    return Op(f"converge_{scheme}_s", f"converge_{scheme}", argv, _checked(check))


def _converge_ci(inp: Inputs, d: MatrixDir) -> Op:
    reps = inp.p["ci_reps"]
    budget = d.trials

    def check(rep, _):
        if rep.get("n_max") != budget:
            return [f"converge ci: n_max {rep.get('n_max')} != {budget}"]
        exact, floats = d.oracle(budget)
        problems = check_rank_table(rep.get("gold", {}), d.ids, exact, floats, None)
        conv = rep.get("methods", {}).get("bayes", {})
        return problems + check_convergence(conv, reps, budget, "ci bayes")

    argv = [CI_CHILD, "--results-dir", str(d.path), "--categories", str(d.num_categories),
            "--replicates", str(reps), "--seed", str(inp.seed), "--ci", str(CI_Z)]
    return Op("converge_ci_s", "converge_ci", argv, _checked(check))


_WARNING = re.compile(rb"warning: (\d+) record\(s\) missing verifier fields")


def _rubric(inp: Inputs, sig: Signals) -> Op:
    out = inp.out / f"rubric-{sig.path.stem}.csv"

    def check(rep, stderr):
        m, n = sig.expected.shape
        problems = []
        head = (rep.get("schema"), rep.get("num_categories"), rep.get("M"), rep.get("N"))
        if head != ("format-aware", 5, m, n):
            problems.append(f"rubric: header {head}")
        ids, cells = read_matrix_csv(out)
        if cells.shape != (m, n) or ids != [f"q{i + 1}" for i in range(m)]:
            return problems + [f"rubric: matrix shape {cells.shape} != {(m, n)}"]
        if cells.min() < 0 or cells.max() > 4:
            problems.append("rubric: cell outside [0, 4]")
        if int((cells == 0).sum()) < sig.planted:
            problems.append("rubric: fewer category-0 cells than planted repeated_pattern records")
        if not np.array_equal(cells, sig.expected):
            problems.append(f"rubric: {int((cells != sig.expected).sum())} cells differ from format-aware")
        warned = _WARNING.search(stderr)
        if sig.omitted and (not warned or int(warned.group(1)) != sig.omitted):
            problems.append(f"rubric: expected a warning for {sig.omitted} defaulted records")
        return problems

    argv = [*CLI, "rubric", "--signals", str(sig.path), "--schema", "format-aware",
            "--emit-matrix", str(out)]
    return Op("rubric_s", f"rubric_{sig.path.stem}", argv, _checked(check))


def slots(inp: Inputs) -> list[tuple[Op, ...]]:
    """The workload's operations, one slot per timed (metric, part), in run order.

    Every slot holds one operation except ``rubric_s`` on a workload with
    several signal files, whose operations take turns.
    """
    if not inp._slots:
        main = inp.dirs["main"]
        boot = inp.dirs.get("boot", main)
        methods = "bayes,avg" if boot.num_categories > 2 else None
        first = "LLM10" if inp.workload == "paper-cohort" else main.ids[0]
        single = [
            _simulate(inp),
            _rank(inp, main),
            _converge(inp, boot, "row", methods),
            _converge(inp, boot, "col", methods),
            _converge_ci(inp, boot),
            _separation(inp),
            _eval_bayes(inp, main, first),
            *([_eval_bayes(inp, boot, boot.ids[0], RUBRIC_WEIGHTS)] if boot is not main else []),
            *(_eval_passk(inp, main, first, m) for m in PASSK_METHODS),
        ]
        inp._slots = [(op,) for op in single] + [tuple(_rubric(inp, sig) for sig in inp.signals)]
    return inp._slots
