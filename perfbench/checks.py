"""Output checks for the artifacts each `sim` subcommand writes.

Every checker takes the config values the benchmark wrote for the run,
the run's output directory and its captured stdout, and returns a list
of problems; an empty list means the outputs are correct.  The checks
hold for every seed the benchmark generates: they compare against
exact identities, against the run's own tolerances, or against an
independent recomputation of the closed forms.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

#: CODATA reduced Planck constant, J s
HBAR = 1.054571817e-34

#: the six cross-checks `sim verify` must report
VERIFY_CHECKS = frozenset({
    "classical_averaging", "current_ode", "adiabatic_elimination",
    "entropy_oracle", "cat_fidelity", "separability_12",
})

#: rows per entropy CSV recomputed with the independent double sum
ENTROPY_SAMPLE_ROWS = 48

#: absolute agreement demanded of a recomputed linear entropy; the
#: program's own truncation bound is 2e-12 and its CSV keeps 13 digits
ENTROPY_TOL = 1e-9


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def linear_entropies(alpha: complex, beta: complex, gamma: complex,
                     theta_t: float) -> tuple[float, float, float]:
    """E_N|12, E_1|N2 and E_2|N1 of the layer state, by direct double sum.

    Written from the formulas alone:
    ``E = 1 - sum_{n,m} p_n p_m exp(-|x_n - x_m|^2)`` with Poisson
    weights ``p_n`` of mean ``|alpha|^2`` and branch amplitudes
    ``beta_n = beta cos(n theta_t) - i gamma sin(n theta_t)``,
    ``gamma_n = gamma cos(n theta_t) - i beta sin(n theta_t)``.  The
    layer count leaves a Poisson tail far below double precision.
    """
    mean = abs(alpha) ** 2
    n_layers = int(mean + 12.0 * math.sqrt(mean) + 40)
    n = np.arange(n_layers)
    if mean == 0.0:
        p = (n == 0).astype(float)
    else:
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n_layers)))))
        p = np.exp(-mean + n * math.log(mean) - log_fact)
    phi = n * theta_t
    b = beta * np.cos(phi) - 1j * gamma * np.sin(phi)
    g = gamma * np.cos(phi) - 1j * beta * np.sin(phi)
    w = np.outer(p, p)
    db = np.abs(b[:, None] - b[None, :]) ** 2
    dg = np.abs(g[:, None] - g[None, :]) ** 2
    return (
        1.0 - float(np.sum(w * np.exp(-db - dg))),
        1.0 - float(np.sum(w * np.exp(-db))),
        1.0 - float(np.sum(w * np.exp(-dg))),
    )


def entropy_sample(n_rows: int, seed: int) -> list[int]:
    """Row indices recomputed independently; the same seed picks the same rows."""
    return sorted(random.Random(seed).sample(range(n_rows), min(n_rows, ENTROPY_SAMPLE_ROWS)))


def check_params(cfg: dict, out: Path, stdout: str) -> list[str]:
    lines = [ln.split() for ln in stdout.splitlines() if ln.strip().startswith("theta/theta0")]
    if len(lines) != 1:
        return [f"expected one theta/theta0 line in stdout, found {len(lines)}"]
    printed = float(lines[0][-1])
    expected = -HBAR / (cfg["d"] ** 2 * cfg["m"] * cfg["nu"])
    if abs(printed - expected) > 1e-10 * abs(expected):
        return [f"theta/theta0 {printed!r} != -hbar/(d^2 m nu) = {expected!r}"]
    return []


def check_current(cfg: dict, out: Path, stdout: str) -> list[str]:
    header, rows = read_csv(out / "current.csv")
    if header != ["tau", "I_nb0", "I_nb1", "I_nb2", "I_nb3", "residual"]:
        return [f"current.csv header {header}"]
    if len(rows) != cfg["current_points"]:
        return [f"current.csv has {len(rows)} rows, expected {cfg['current_points']}"]
    problems = []
    for tau, *curves, residual in rows:
        for k, value in enumerate(curves):
            # 1e-12 per unit of k: the CSV's 13 significant digits round
            # both tau and the value, by up to 1.1e-12 together at k = 3
            expected = k * (1.0 - math.exp(-tau))
            if not abs(value - expected) <= 1e-12 * (1 + k):
                problems.append(f"I_nb{k}({tau}) = {value!r}, expected {expected!r}")
        if not residual <= cfg["tol_current_ode"]:
            problems.append(f"residual {residual!r} at tau {tau} above tol_current_ode")
    if rows[0][0] != 0.0 or abs(rows[-1][0] - cfg["current_tau_max"]) > 1e-12 * cfg["current_tau_max"]:
        problems.append("tau column does not span [0, current_tau_max]")
    return problems[:5]


def _entropy_values_ok(name: str, rows: list[list[float]], columns: slice,
                       theta_col: int) -> list[str]:
    problems = []
    for i, row in enumerate(rows):
        values = row[columns]
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
            problems.append(f"{name} row {i}: entropy outside [0, 1]: {values}")
        elif row[theta_col] == 0.0 and max(values) > 1e-10:
            problems.append(f"{name} row {i}: nonzero entropy {values} at theta_t = 0")
    return problems


def check_entropy(cfg: dict, out: Path, stdout: str, sample_seed: int = 0) -> list[str]:
    points = cfg["entropy_points"]
    alpha = complex(cfg["alpha_re"], cfg["alpha_im"])
    beta = complex(cfg["beta_re"], cfg["beta_im"])
    gamma = complex(cfg["gamma_re"], cfg["gamma_im"])
    problems = []

    header, curves = read_csv(out / "entropy_curves.csv")
    if header != ["alpha_re", "alpha_im", "beta_re", "beta_im", "gamma_re", "gamma_im",
                  "theta_t", "E_N12", "E_1N2", "E_2N1"]:
        return [f"entropy_curves.csv header {header}"]
    if len(curves) != 4 * points:
        return [f"entropy_curves.csv has {len(curves)} rows, expected {4 * points}"]
    problems += _entropy_values_ok("entropy_curves.csv", curves, slice(7, 10), 6)
    for i in entropy_sample(len(curves), sample_seed):
        a_re, a_im, b_re, b_im, g_re, g_im, theta_t, *got = curves[i]
        if abs(complex(a_re, a_im) - alpha) > 1e-11 * max(1.0, abs(alpha)):
            problems.append(f"entropy_curves.csv row {i}: alpha {a_re}+{a_im}j is not the config's")
        want = linear_entropies(complex(a_re, a_im), complex(b_re, b_im),
                                complex(g_re, g_im), theta_t)
        if max(abs(x - y) for x, y in zip(got, want)) > ENTROPY_TOL:
            problems.append(f"entropy_curves.csv row {i}: {got} != recomputed {list(want)}")

    header, grid = read_csv(out / "entropy_alpha_grid.csv")
    if header != ["theta_t", "abs_alpha", "E_N12"]:
        return problems + [f"entropy_alpha_grid.csv header {header}"]
    if len(grid) != cfg["alpha_points"] * points:
        return problems + [
            f"entropy_alpha_grid.csv has {len(grid)} rows, "
            f"expected {cfg['alpha_points'] * points}"
        ]
    problems += _entropy_values_ok("entropy_alpha_grid.csv", grid, slice(2, 3), 0)
    for i in entropy_sample(len(grid), sample_seed + 1):
        theta_t, abs_alpha, got = grid[i]
        want = linear_entropies(complex(abs_alpha), beta, gamma, theta_t)[0]
        if abs(got - want) > ENTROPY_TOL:
            problems.append(f"entropy_alpha_grid.csv row {i}: {got!r} != recomputed {want!r}")
    return problems[:5]


def check_classical(cfg: dict, out: Path, stdout: str) -> list[str]:
    header, rows = read_csv(out / "classical_report.csv")
    if header != ["estimated_omega", "predicted_omega", "rel_error", "drive_nu", "x0_over_d"] \
            or len(rows) != 1:
        return ["classical_report.csv does not hold one report row"]
    est, pred, rel_error, _, _ = rows[0]
    problems = []
    if not rel_error <= cfg["tol_classical_peak"]:
        problems.append(f"rel_error {rel_error!r} above tol_classical_peak")
    if abs(rel_error - abs(est - pred) / pred) > 1e-9 * max(rel_error, 1e-12):
        problems.append("rel_error disagrees with the reported frequencies")
    header, traj = read_csv(out / "trajectory.csv")
    if header != ["t", "Q1", "P1", "Q2", "P2"]:
        problems.append(f"trajectory.csv header {header}")
    if len(traj) != cfg["classical_samples"]:
        problems.append(f"trajectory.csv has {len(traj)} rows, expected {cfg['classical_samples']}")
    if not all(len(row) == 5 and all(map(math.isfinite, row)) for row in traj):
        problems.append("trajectory.csv holds a short or non-finite row")
    return problems


def check_verify(cfg: dict, out: Path, stdout: str) -> list[str]:
    payload = json.loads((out / "verify.json").read_text(encoding="utf-8"))
    checks = payload.get("checks", [])
    problems = []
    if payload.get("passed") is not True:
        problems.append("verify.json reports passed != true")
    if len(checks) != 6 or {c.get("name") for c in checks} != VERIFY_CHECKS:
        problems.append(f"verify.json lists checks {[c.get('name') for c in checks]}")
    for c in checks:
        if not (c.get("passed") is True and c["residual"] <= c["tolerance"]):
            problems.append(f"{c.get('name')}: residual {c.get('residual')} > tolerance {c.get('tolerance')}")
    return problems


def check_defaults(cfg: dict, out: Path, stdout: str) -> list[str]:
    keys = [ln.split("=", 1)[0].strip() for ln in stdout.splitlines() if "=" in ln]
    if not keys or len(keys) != len(set(keys)):
        return ["`defaults` did not print one `key = value` line per key"]
    return []


CHECKERS = {
    "params": check_params,
    "current": check_current,
    "entropy": check_entropy,
    "classical": check_classical,
    "verify": check_verify,
    "defaults": check_defaults,
}


def check(command: str, cfg: dict, out: Path, stdout: str, returncode: int,
          seed: int = 0) -> list[str]:
    """Problems with one invocation's exit status and artifacts.

    ``seed`` picks the entropy rows that are recomputed independently.
    """
    if returncode != 0:
        return [f"`{command}` exited with {returncode}"]
    try:
        if command == "entropy":
            return check_entropy(cfg, out, stdout, seed)
        return CHECKERS[command](cfg, out, stdout)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"`{command}` artifacts unreadable: {exc!r}"]
