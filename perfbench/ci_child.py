"""CI-aware convergence@n through the public API.

The CLI has no flag for ``convergence_distributions(..., ci_z=...)``, so
the benchmark runs this script as a child process, the same way it runs
CLI commands. It writes one JSON report to stdout.

    python3 perfbench/ci_child.py --results-dir DIR --categories C \
        --replicates R --seed S [--ci 1.645]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bayeseval import bootstrap, io


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--results-dir", required=True)
    ap.add_argument("--categories", type=int, required=True)
    ap.add_argument("--replicates", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ci", type=float, default=1.645)
    args = ap.parse_args(argv)
    matrices = {
        p.stem: io.load_results_csv(p, args.categories)
        for p in sorted(Path(args.results_dir).glob("*.csv"))
    }
    plan = bootstrap.ResamplePlan("row", args.replicates, args.seed)
    n_max = plan.budget(next(iter(matrices.values())).trials)
    dists = bootstrap.convergence_distributions(matrices, ["bayes"], plan, ci_z=args.ci)
    report = {
        "ci_z": args.ci,
        "n_max": n_max,
        "gold": bootstrap.gold_table(matrices, n_max).to_report(),
        "methods": {name: d.to_report() for name, d in dists.items()},
    }
    sys.stdout.buffer.write(io.emit_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
