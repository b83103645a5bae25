"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, closed-loop and traced, and requires
no failed operation and every metric of BENCHMARK.json in the result,
finite and above zero. Then runs each workload once more per
``eval --method bayes`` report (identity weights and, on large-matrix,
weights 0,0,1,2,3) with one altered digit in its score, and requires
exactly that operation to be counted as failed. Last, runs the benchmark
in a directory holding only BENCHMARK.json and the benchmark, where it
must exit non-zero without a result line. Exits 1 on the first broken
expectation.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import run as bench

SCORE = re.compile(rb'("score":)(-?[0-9.]+(?:e-?[0-9]+)?)')


def alter_digit(number: bytes, position: int = 10) -> bytes:
    """Change the ``position``-th significant digit of a printed number."""
    seen = 0
    for i, ch in enumerate(number):
        if chr(ch).isdigit() and (seen or ch != ord("0")):
            seen += 1
            if seen == position:
                digit = (ch - ord("0") + 5) % 10
                return number[:i] + bytes([ord("0") + digit]) + number[i + 1:]
    return number + b"7"   # fewer digits than ``position``: append one


def corrupt_once(label: str):
    """A report mutator that alters one score digit of the first ``label`` report."""
    done = []

    def mutate(op, stdout: bytes) -> bytes:
        if op.label != label or done:
            return stdout
        done.append(label)
        return SCORE.sub(lambda m: m.group(1) + alter_digit(m.group(2)), stdout, count=1)

    return mutate


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    names = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    expect([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
           "BENCHMARK.json lists the benchmark's workloads")
    for workload in bench.WORKLOADS:
        for trace in (False, True):
            result, _ = bench.run(workload, 1, 0.1, trace, scale="tiny")
            values = [v["value"] for v in result["metrics"].values()]
            expect(
                result["failed"] == 0 and result["correct"] and result["attempted"] >= 11,
                f"{workload} trace={int(trace)}: {result['attempted']} operations, none failed",
            )
            expect(set(result["metrics"]) == names[trace]
                   and all(math.isfinite(v) and v > 0 for v in values),
                   f"{workload} trace={int(trace)}: every metric reported")
        labels = ["eval_bayes"] + (["eval_bayes_weighted"] if workload == "large-matrix" else [])
        for label in labels:
            result, _ = bench.run(workload, 1, 0.1, False, scale="tiny", mutate=corrupt_once(label))
            expect(result["failed"] == 1 and not result["correct"],
                   f"{workload}: one altered score digit in {label} counts as one failed operation")

    empty = bench.ROOT / ".perfbench-work" / "empty-checkout"
    shutil.rmtree(empty, ignore_errors=True)
    shutil.copytree(bench.ROOT / "perfbench", empty / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", empty)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", bench.WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=empty, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(empty, ignore_errors=True)
        try:
            empty.parent.rmdir()
        except OSError:
            pass
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without the program the benchmark exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    if not (bench.SRC / "bayeseval").is_dir():
        sys.exit("error: run from a checkout with src/bayeseval")
    sys.path.insert(0, str(bench.SRC))
    os.environ.pop("BAYESEVAL_THREADS", None)
    sys.exit(main())
