"""Independent oracles and report checks.

Every check compares a report against facts the benchmark knows from
generating the inputs: exact rational closed forms computed here from the
generated cells, the documented reference means, and the rubric category
each generated signal record must map to. No check compares against a
stored output. A check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

# A report prints floats at 12 significant digits; closed-form values must
# agree to that precision.
BAYES_RTOL = 1e-11
# Pass-family estimators switch to log-gamma above 64 trials, which costs a
# few more ulps per question than the exact rational oracle.
PASSK_RTOL = 1e-9
MASS_TOL = 1e-9


def close(got, want: float, rtol: float) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= rtol * max(abs(want), 1e-300)


# -- matrices on disk -----------------------------------------------------------

def write_matrix_csv(path: Path, cells: np.ndarray) -> None:
    """Write ``question_id,t1..tN`` CSV with ids q1..qM; cells must be single digits."""
    m, n = cells.shape
    ids = (f"q{i + 1}" for i in range(m))
    grid = np.empty((m, 2 * n), dtype=np.uint8)
    grid[:, 0::2] = ord(",")
    grid[:, 1::2] = cells.astype(np.uint8) + ord("0")
    rows = grid.view(f"S{2 * n}").ravel()
    header = "question_id," + ",".join(f"t{j + 1}" for j in range(n))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(f"{q}{r.decode()}\n" for q, r in zip(ids, rows))


def read_matrix_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Parse a matrix CSV written by either side; strict about the layout."""
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        lines = fh.read().splitlines()
    if header[0] != "question_id":
        raise ValueError(f"{path}: bad header")
    n = len(header) - 1
    ids = []
    cells = np.empty((len(lines), n), dtype=np.int64)
    for i, line in enumerate(lines):
        parts = line.split(",")
        if len(parts) != n + 1:
            raise ValueError(f"{path}: row {i + 2} has {len(parts)} fields")
        ids.append(parts[0])
        cells[i] = [int(p) for p in parts[1:]]
    return ids, cells


# -- closed forms ---------------------------------------------------------------

def bayes_exact(cells: np.ndarray, num_categories: int, weights) -> tuple[Fraction, Fraction]:
    """Exact posterior mean and variance under the uniform Dirichlet prior.

    Per question ``nu_j = n_j + 1`` and ``T = 1 + C + N``:
    ``mu = w0 + sum_a sum_j nu_j (w_j - w0) / (M T)`` and
    ``var = sum_a [E_a(dw^2) - E_a(dw)^2] / (M^2 (T + 1))``.
    Questions with the same category counts are grouped, which keeps the
    rational arithmetic cheap on 20,000-row matrices.
    """
    m, n = cells.shape
    counts = np.stack([(cells == k).sum(axis=1) for k in range(num_categories)], axis=1)
    w = [Fraction(x) for x in weights]
    dw = [x - w[0] for x in w]
    t = num_categories + n
    first = Fraction(0)
    spread = Fraction(0)
    for cnt, mult in Counter(map(tuple, counts.tolist())).items():
        e1 = sum((c + 1) * d for c, d in zip(cnt, dw)) / t
        e2 = sum((c + 1) * d * d for c, d in zip(cnt, dw)) / t
        first += mult * e1
        spread += mult * (e2 - e1 * e1)
    return w[0] + first / m, spread / (m * m * (t + 1))


def _gpass_single(n: int, c: int, k: int, j0: int) -> Fraction:
    total = math.comb(n, k)
    return Fraction(
        sum(math.comb(c, j) * math.comb(n - c, k - j) for j in range(j0, min(c, k) + 1)),
        total,
    )


def passk_exact(cells: np.ndarray, method: str) -> Fraction:
    """``pass@K``, ``gpass@K:P/Q`` or ``mgpass@K`` from ``math.comb`` ratios."""
    m, n = cells.shape
    hist = Counter(cells.sum(axis=1).tolist())
    if method.startswith("pass@"):
        k = int(method[5:])
        per_c = lambda c: 1 - Fraction(math.comb(n - c, k), math.comb(n, k))
    elif method.startswith("gpass@"):
        k_text, tau_text = method[6:].split(":")
        k = int(k_text)
        j0 = math.ceil(Fraction(tau_text) * k)
        per_c = lambda c: _gpass_single(n, c, k, j0)
    elif method.startswith("mgpass@"):
        k = int(method[7:])
        lo = math.ceil(Fraction(k, 2)) + 1
        per_c = lambda c: Fraction(2, k) * sum(
            _gpass_single(n, c, k, math.ceil(Fraction(i, k) * k)) for i in range(lo, k + 1)
        )
    else:
        raise ValueError(method)
    return sum(mult * per_c(c) for c, mult in hist.items()) / m


# -- report checks --------------------------------------------------------------

def parse_report(stdout: bytes) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(stdout), []
    except (ValueError, UnicodeDecodeError) as exc:
        return None, [f"report is not JSON: {exc}"]


def check_posterior(entry_mu, entry_sigma, mu: float, sigma: float, what: str) -> list[str]:
    out = []
    if not close(entry_mu, mu, BAYES_RTOL):
        out.append(f"{what}: mu {entry_mu!r} != closed form {mu!r}")
    if not close(entry_sigma, sigma, BAYES_RTOL):
        out.append(f"{what}: sigma {entry_sigma!r} != closed form {sigma!r}")
    return out


def check_rank_table(table: dict, model_ids, exact: dict, floats: dict, z: float | None) -> list[str]:
    """Entries, closed-form scores and dense ranks of a rank table.

    ``exact`` maps model -> exact mean (for ties), ``floats`` model ->
    (mu, sigma). With ``z`` the ranks follow the consecutive-pair chain
    rule; otherwise exact mean ties share a rank.
    """
    entries = table.get("entries", [])
    if sorted(e.get("model") for e in entries) != sorted(model_ids):
        return [f"rank table models {[e.get('model') for e in entries]} != {sorted(model_ids)}"]
    out = []
    for e in entries:
        mu, sigma = floats[e["model"]]
        out += check_posterior(e.get("mu"), e.get("sigma"), mu, sigma, f"model {e['model']}")
    order = sorted(range(len(model_ids)), key=lambda i: -exact[model_ids[i]])
    want_order = [model_ids[i] for i in order]
    if [e["model"] for e in entries] != want_order:
        out.append(f"rank order {[e['model'] for e in entries]} != {want_order}")
        return out
    want, rank = [], 0
    for pos, mid in enumerate(want_order):
        if pos == 0:
            rank = 1
        elif z is None:
            rank += exact[mid] != exact[want_order[pos - 1]]
        else:
            (mu_a, s_a), (mu_b, s_b) = floats[want_order[pos - 1]], floats[mid]
            denom = math.hypot(s_a, s_b)
            gap = abs(mu_a - mu_b)
            zz = (0.0 if gap == 0 else math.inf) if denom == 0 else gap / denom
            rank += zz >= z
        want.append(rank)
    got = [e.get("rank") for e in entries]
    if got != want:
        out.append(f"ranks {got} != {want}")
    return out


def check_convergence(conv: dict, replicates: int, n_max: int, what: str) -> list[str]:
    """Mass conservation and shape of one convergence@n distribution."""
    out = []
    if conv.get("replicates") != replicates:
        out.append(f"{what}: replicates {conv.get('replicates')} != {replicates}")
    pmf = [p.get("pmf") for p in conv.get("pmf", [])]
    cdf = [p.get("cdf") for p in conv.get("pmf", [])]
    censored = conv.get("censored_mass")
    if len(pmf) != n_max or not all(isinstance(v, (int, float)) for v in pmf + cdf + [censored]):
        return out + [f"{what}: malformed pmf"]
    if any(v < 0 for v in pmf) or not 0 <= censored <= 1:
        out.append(f"{what}: negative mass")
    if abs(math.fsum(pmf) + censored - 1.0) > MASS_TOL:
        out.append(f"{what}: sum(pmf) + censored = {math.fsum(pmf) + censored!r} != 1")
    if any(b < a - MASS_TOL for a, b in zip(cdf, cdf[1:])) or abs(cdf[-1] + censored - 1) > MASS_TOL:
        out.append(f"{what}: cdf not a cumulative pmf")
    return out


def check_tau_curve(curve: dict, replicates: int, n_max: int, what: str) -> list[str]:
    out = []
    points = curve.get("points", [])
    if not points or points[-1].get("N") != n_max:
        out.append(f"{what}: tau curve does not end at N={n_max}")
    for p in points:
        v, se, r = p.get("value"), p.get("stderr"), p.get("replicates")
        if not (isinstance(v, (int, float)) and -1.0 <= v <= 1.0):
            out.append(f"{what}: tau {v!r} at N={p.get('N')} outside [-1, 1]")
        if not (isinstance(se, (int, float)) and se >= 0):
            out.append(f"{what}: stderr {se!r} at N={p.get('N')}")
        if not (isinstance(r, int) and 0 < r <= replicates):
            out.append(f"{what}: replicates {r!r} at N={p.get('N')}")
    return out
