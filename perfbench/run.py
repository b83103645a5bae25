"""bayeseval benchmark: one closed-loop client driving the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory. With ``--trace 0`` each operation is a child process
(``python -m bayeseval.cli ...`` or ``perfbench/ci_child.py``), started
only after the previous one ended and reaped with ``os.wait4``, so every
command gets its own wall time and peak RSS. With ``--trace 1`` the same
operations run in-process with per-module spans (see ``spans.py``).

Inputs are generated from ``--seed`` (see ``workloads.py``); every output is
checked against facts known from generating them (see ``oracle.py``). The
last stdout line is the result object; the line before it carries run
metadata. Exits 2 without a result when the checkout has no program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("paper-cohort", "large-matrix")
SETUP_REPEATS = 7
# Commands shorter than this get extra samples in the closed loop.
FILL_S = 0.5
# Every child is killed once the run is this old, so the run ends in time.
RUN_LIMIT_S = 170.0


def upper_percentile(values):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it, else None."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def child_env() -> dict:
    """The user's environment, with the checkout's src first and default threads."""
    env = dict(os.environ)
    env.pop("BAYESEVAL_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, env, work: Path, deadline: float):
    """Run one child to completion; (wall s, peak RSS MB, exit code, stdout, stderr)."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_bytes(), err_path.read_bytes()


class Tally:
    """Attempted/failed operations, report digests and per-metric samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples = defaultdict(list)       # (metric, part) -> wall seconds
        self.digests = {}                      # op label -> sha256 of first report
        self.drift = set()                     # labels whose report bytes changed between samples

    def record(self, op, wall, rc, stdout, stderr) -> None:
        self.attempted += 1
        if rc != 0:
            problems = [f"exit code {rc}: {stderr.decode(errors='replace')[-400:]}"]
        else:
            try:
                problems = op.check(stdout, stderr)
            except Exception as exc:  # a malformed output must count, not crash the run
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            print(f"FAILED {op.label}: " + "; ".join(problems[:5]), file=sys.stderr)
        self.samples[(op.metric, op.part)].append(wall)
        digest = hashlib.sha256(stdout).hexdigest()
        if self.digests.setdefault(op.label, digest) != digest:
            self.drift.add(op.label)

    def metric(self, name: str) -> float:
        """Sum over the metric's parts of each part's mean over the run.

        The mean, not the median: on a shared host the CPU speed can switch
        between two levels for seconds at a time, so a command's times are
        bimodal and their median jumps between the levels when their mix
        nears one half, while the mean follows the mix smoothly. The median
        and a high percentile are still in the metadata.
        """
        return sum(statistics.fmean(v) for (m, _), v in self.samples.items() if m == name)

    def sample_info(self) -> dict:
        info = {}
        for (m, part), v in sorted(self.samples.items()):
            entry = {"samples": len(v), "mean_s": statistics.fmean(v),
                     "median_s": statistics.median(v), "values_s": v}
            high = upper_percentile(v)
            if high:
                entry[f"p{high[0]}_s"] = high[1]
            info[f"{m}:{part}" if part else m] = entry
        return info


def closed_loop(workloads, inp, seconds, env, work, deadline, tally, mutate=None) -> dict:
    """Run the workload's slots one command at a time for ``seconds``.

    A slot's turn count is its sample count, or for a command shorter than
    ``FILL_S`` its wall time so far in units of ``FILL_S``; the slot with
    the fewest turns runs next. So every slow command gets as many samples
    as any other, a short one several per round, and each metric's
    samples are spread over the whole run: a mean over the run follows
    the host's speed across the run rather than during one burst. The loop
    stops when the next command would be expected to end after
    ``seconds``; the first round always completes.
    """
    slots = workloads.slots(inp)
    spent = [0.0] * len(slots)
    runs = [0] * len(slots)
    peak = 0.0
    start = time.perf_counter()
    while True:
        i = min(range(len(slots)), key=lambda s: min(runs[s], spent[s] / FILL_S))
        if runs[i] and time.perf_counter() + spent[i] / runs[i] > start + seconds:
            break
        op = slots[i][runs[i] % len(slots[i])]
        wall, rss, rc, out, err = run_child(op.argv, env, work, deadline)
        if mutate:
            out = mutate(op, out)
        tally.record(op, wall, rc, out, err)
        spent[i] += wall
        runs[i] += 1
        peak = max(peak, rss)
    return {"elapsed_s": time.perf_counter() - start, "peak_rss_mb": peak}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def cache_sizes() -> dict:
    out = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((d / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        mutate=None) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, metadata)."""
    import numpy as np
    import workloads

    t_run = time.perf_counter()
    deadline = t_run + RUN_LIMIT_S
    env = child_env()
    base = ROOT / ".perfbench-work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS if scale == "full" else 1):
            shutil.rmtree(base, ignore_errors=True)
            t0 = time.perf_counter()
            inp = workloads.setup(workload, base / "data", seed, scale)
            workloads.warm_up(env)
            setups.append(time.perf_counter() - t0)
        workloads.slots(inp)                     # oracles are computed before timing
        tally = Tally()
        meta = {
            "workload": workload, "seed": seed, "seconds": seconds, "scale": scale,
            "params": inp.p, "setup_s": setups, "src_lines": src_lines(),
            "nproc": len(os.sched_getaffinity(0)), "caches": cache_sizes(),
            "python": sys.version.split()[0], "numpy": np.__version__,
        }
        spec = json.loads(SPEC.read_text())
        units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        if trace:
            import spans
            metrics, meta["trace"] = spans.measure(workloads, inp, seconds, env, tally, units, mutate)
        else:
            loop = closed_loop(workloads, inp, seconds, env, base, deadline, tally, mutate)
            values = {"setup_s": statistics.median(setups), "peak_rss_mb": loop["peak_rss_mb"]}
            metrics = {
                name: {"value": values[name] if name in values else tally.metric(name), "unit": unit}
                for name, unit in units.items()
            }
            meta["elapsed_s"] = loop["elapsed_s"]
        meta["samples"] = tally.sample_info()
        meta["report_sha256"] = tally.digests
        meta["report_drift"] = sorted(tally.drift)
        meta["fail_ratio"] = tally.failed / tally.attempted
        result = {"correct": tally.failed == 0, "attempted": tally.attempted,
                  "failed": tally.failed, "metrics": metrics}
        return result, meta
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bayeseval closed-loop CLI benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bayeseval" / "__init__.py").is_file():
        print(f"error: no bayeseval sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("BAYESEVAL_THREADS", None)
    result, meta = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
