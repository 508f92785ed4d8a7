"""Command-line front end.

Every subcommand loads one plain-text config (``--config``, optional),
writes its outputs into ``--out`` (default: current directory) and
prints a short human-readable summary to stdout.  File writes are
atomic — content lands under a temporary name and is renamed into
place — so a crashed run never leaves a half-written CSV behind.

Exit codes: 0 success, 1 verification failure, 2 bad input or a
simulation that refused to run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from .circuit import estimate_dominant_frequency, simulate_classical_circuit
from .config import RunConfig, default_config_text, load_config
from .entanglement import cat_state_check, entropy_series, oracle_dims
from .errors import ConfigError, SimulationError, VerificationFailure
from .readout import integrate_mean_qsde, mean_photocurrent
from .verify import classical_scenario, run_all

__all__ = ["main"]

# Branch-amplitude parameter sets traced by the `entropy` subcommand, as
# (beta, gamma) pairs; the shared coherent amplitude alpha comes from the
# config.  These four cover real, unequal, complex-equal and fully
# complex inputs.
ENTROPY_CURVE_SETS: tuple[tuple[complex, complex], ...] = (
    (2.0 + 0.0j, 2.0 + 0.0j),
    (3.0 + 0.0j, 4.0 + 0.0j),
    (1.0 + 2.0j, 1.0 + 2.0j),
    (3.0 + 4.0j, 1.0 + 2.0j),
)


def _write_atomic(path: Path, text: str) -> None:
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        # mkstemp creates 0600; give the artifact the mode open() would
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{float(v):.12e}" for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _print_table(pairs: Sequence[tuple[str, str]]) -> None:
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        print(f"  {key:<{width}}  {value}")


def cmd_params(cfg: RunConfig, out: Path, strict: bool) -> int:
    eff = cfg.effective()
    ro = cfg.readout(strict=strict)
    ratios = ro.regime_ratios()
    print("effective circuit parameters")
    _print_table([
        ("C_eq [F]", f"{eff.c_eq:.12e}"),
        ("C_tilde1 [F]", f"{eff.c_tilde1:.12e}"),
        ("C_tilde2 [F]", f"{eff.c_tilde2:.12e}"),
        ("omega1 [rad/s]", f"{eff.omega1:.12e}"),
        ("omega2 [rad/s]", f"{eff.omega2:.12e}"),
        ("omega_eq1 [rad/s]", f"{eff.omega_eq1:.12e}"),
        ("omega_eq2 [rad/s]", f"{eff.omega_eq2:.12e}"),
        ("omega_tilde1 [rad/s]", f"{eff.omega_tilde1:.12e}"),
        ("omega_tilde2 [rad/s]", f"{eff.omega_tilde2:.12e}"),
        ("theta0 [rad/s]", f"{eff.theta0:.12e}"),
        ("theta [rad/s]", f"{eff.theta:.12e}"),
        ("theta/theta0", f"{eff.theta_ratio:.12e}"),
        ("x_rms^2/d^2", f"{eff.x_rms_sq_over_d_sq:.12e}"),
        ("resonance mismatch", f"{eff.resonance_mismatch:.3e}"),
    ])
    print("readout regime")
    _print_table([
        ("theta0/kappa2", f"{ratios['theta0/kappa2']:.6e}"),
        ("|theta|/kappa2", f"{ratios['|theta|/kappa2']:.6e}"),
        ("measurement rate [1/s]", f"{ro.Gamma:.6e}"),
        ("probe amplitude", f"{ro.alpha2:.6e}"),
        ("current gain [A]", f"{ro.gain:.6e}"),
    ])
    return 0


def cmd_current(cfg: RunConfig, out: Path, strict: bool) -> int:
    ro = cfg.readout(strict=strict)
    if ro.gain == 0.0:
        raise ValueError("current gain is zero; normalized curves are undefined")
    decay = ro.decay_total
    tau = np.linspace(0.0, cfg.current_tau_max, cfg.current_points)
    t = 2.0 * tau / decay
    occupations = (0.0, 1.0, 2.0, 3.0)
    analytic = [mean_photocurrent(t, n, ro) / ro.gain for n in occupations]
    residual = np.zeros_like(tau)
    for n, ref in zip(occupations, analytic):
        if n == 0.0:
            continue  # empty NEMS drives nothing; the column stays zero
        trace = integrate_mean_qsde(
            ro, n, (0.0, float(t[-1])), n_samples=cfg.current_points, rtol=1e-11
        )
        residual = np.maximum(residual, np.abs(trace.current / ro.gain - ref) / n)
    rows = [
        (tau[i], analytic[0][i], analytic[1][i], analytic[2][i], analytic[3][i], residual[i])
        for i in range(len(tau))
    ]
    _write_csv(
        out / "current.csv",
        ("tau", "I_nb0", "I_nb1", "I_nb2", "I_nb3", "residual"),
        rows,
    )
    print(f"wrote {out / 'current.csv'} ({len(tau)} samples)")
    _print_table([
        ("stationary I/gain (n_b=1)", f"{analytic[1][-1]:.12e}"),
        ("stationary I/gain (n_b=2)", f"{analytic[2][-1]:.12e}"),
        ("stationary I/gain (n_b=3)", f"{analytic[3][-1]:.12e}"),
        ("max ODE residual", f"{float(residual.max()):.3e}"),
    ])
    return 0


def cmd_entropy(cfg: RunConfig, out: Path, strict: bool) -> int:
    alpha = complex(cfg.alpha_re, cfg.alpha_im)
    theta_t = np.linspace(0.0, cfg.theta_t_max, cfg.entropy_points)

    rows = []
    for beta, gamma in ENTROPY_CURVE_SETS:
        triple = cfg.triple(beta=beta, gamma=gamma)
        curves = entropy_series(triple, theta_t, n_terms=cfg.n_terms)[:3]
        rows.extend(
            (alpha.real, alpha.imag, beta.real, beta.imag, gamma.real, gamma.imag, *point)
            for point in zip(theta_t, *curves)
        )
    curve_header = (
        "alpha_re", "alpha_im", "beta_re", "beta_im", "gamma_re", "gamma_im",
        "theta_t", "E_N12", "E_1N2", "E_2N1",
    )
    _write_csv(out / "entropy_curves.csv", curve_header, rows)

    grid_rows = []
    for abs_alpha in np.linspace(0.0, cfg.alpha_max, cfg.alpha_points):
        triple = cfg.triple(alpha=complex(abs_alpha))
        e_n_12 = entropy_series(triple, theta_t, n_terms=cfg.n_terms)[0]
        grid_rows.extend((phase, abs_alpha, e) for phase, e in zip(theta_t, e_n_12))
    _write_csv(out / "entropy_alpha_grid.csv", ("theta_t", "abs_alpha", "E_N12"), grid_rows)

    print(f"wrote {out / 'entropy_curves.csv'} ({len(rows)} rows)")
    print(f"wrote {out / 'entropy_alpha_grid.csv'} ({len(grid_rows)} rows)")
    return 0


def cmd_cat(cfg: RunConfig, out: Path, strict: bool) -> int:
    triple = cfg.triple()
    report = cat_state_check(triple, oracle_dims(triple, cfg.oracle_dim))
    odd = math.nan if report.odd_fidelity is None else report.odd_fidelity
    _write_csv(
        out / "cat_report.csv",
        (
            "even_fidelity", "odd_fidelity", "even_weight", "odd_weight",
            "reassembled_norm", "reassembly_fidelity",
        ),
        [(
            report.even_fidelity, odd, report.even_weight, report.odd_weight,
            report.reassembled_norm, report.reassembly_fidelity,
        )],
    )
    print(f"wrote {out / 'cat_report.csv'}")
    _print_table([
        ("even-branch fidelity", f"{report.even_fidelity:.12e}"),
        ("odd-branch fidelity", "n/a" if report.odd_fidelity is None else f"{report.odd_fidelity:.12e}"),
        ("even weight", f"{report.even_weight:.6e}"),
        ("odd weight", f"{report.odd_weight:.6e}"),
        ("reassembled norm", f"{report.reassembled_norm:.12e}"),
        ("reassembly fidelity", f"{report.reassembly_fidelity:.12e}"),
    ])
    return 0


def cmd_classical(cfg: RunConfig, out: Path, strict: bool) -> int:
    run, omega_ref, nu_drive = classical_scenario(cfg)
    traj = simulate_classical_circuit(run)
    _write_csv(
        out / "trajectory.csv",
        ("t", "Q1", "P1", "Q2", "P2"),
        zip(traj.t, traj.q1, traj.p1, traj.q2, traj.p2),
    )
    dt = traj.t[1] - traj.t[0]
    est = estimate_dominant_frequency(traj.q1, dt)
    rel_error = abs(est - omega_ref) / omega_ref
    _write_csv(
        out / "classical_report.csv",
        ("estimated_omega", "predicted_omega", "rel_error", "drive_nu", "x0_over_d"),
        [(est, omega_ref, rel_error, nu_drive, cfg.classical_x0_over_d)],
    )
    print(f"wrote {out / 'trajectory.csv'} ({traj.t.size} samples)")
    print(f"wrote {out / 'classical_report.csv'}")
    _print_table([
        ("spectral peak [rad/s]", f"{est:.12e}"),
        ("averaged prediction [rad/s]", f"{omega_ref:.12e}"),
        ("relative error", f"{rel_error:.3e}"),
    ])
    return 0


def cmd_verify(cfg: RunConfig, out: Path, strict: bool) -> int:
    results = run_all(cfg, strict=strict)
    payload = {
        "passed": all(r.passed for r in results),
        "checks": [r.as_dict() for r in results],
    }
    _write_atomic(out / "verify.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for r in results:
        mark = " ok " if r.passed else "FAIL"
        print(f"[{mark}] {r.name}: residual {r.residual:.3e} (tolerance {r.tolerance:.3e})")
    print(f"wrote {out / 'verify.json'}")
    if not payload["passed"]:
        failed = ", ".join(r.name for r in results if not r.passed)
        raise VerificationFailure(failed)
    return 0


def cmd_defaults(cfg: RunConfig, out: Path, strict: bool) -> int:
    sys.stdout.write(default_config_text())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", default=None,
                        help="plain-text key=value config (defaults when omitted)")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="directory for output files (created if missing)")
    common.add_argument("--strict", action="store_true",
                        help="treat dispersive-regime violations as errors")

    parser = argparse.ArgumentParser(
        prog="sim",
        description="Coupled-resonator phonon readout and entanglement toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("params", parents=[common],
                   help="print derived circuit and readout parameters").set_defaults(func=cmd_params)
    sub.add_parser("current", parents=[common],
                   help="normalized photocurrent transients for n_b = 1, 2, 3").set_defaults(func=cmd_current)
    sub.add_parser("entropy", parents=[common],
                   help="linear-entropy curves and phase/amplitude grid").set_defaults(func=cmd_entropy)
    sub.add_parser("cat", parents=[common],
                   help="half-exchange cat-state projection report").set_defaults(func=cmd_cat)
    sub.add_parser("classical", parents=[common],
                   help="classical trajectory and averaging cross-check").set_defaults(func=cmd_classical)
    sub.add_parser("verify", parents=[common],
                   help="run all cross-checks and write verify.json").set_defaults(func=cmd_verify)
    sub.add_parser("defaults", parents=[common],
                   help="print a config file holding every default").set_defaults(func=cmd_defaults)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(cfg, out, args.strict)
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
