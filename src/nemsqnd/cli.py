"""Command-line front end.

Every subcommand loads one plain-text config (``--config``, optional),
writes its outputs into ``--out`` (default: current directory) and
prints a short human-readable summary to stdout.  File writes are
atomic — content lands under a temporary name and is renamed into
place — so a crashed run never leaves a half-written CSV behind.

Exit codes: 0 success, 1 verification failure, 2 bad input or a
simulation that refused to run; ``--strict`` makes a ``RegimeWarning``
such a refusal.

``params``, ``current``, ``defaults``, ``--help`` and every config error
run on the standard library alone: each array subcommand imports numpy
and the modules it calls inside its own ``cmd_*`` body.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import tempfile
import warnings
from collections.abc import Iterable, Sequence
from pathlib import Path

from .config import REGIME_LIMIT, RunConfig, default_config_text, load_config
from .errors import ConfigError, RegimeWarning, SimulationError

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


def _write_atomic(path: Path, chunks: Iterable[str]) -> None:
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.writelines(chunks)
        # mkstemp creates 0600; give the artifact the mode open() would
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


#: rows formatted by one ``%`` at a time: about 0.2 MB of text at ten
#: columns, and 1.2 MiB traced at the peak of a long `sim entropy`
CSV_BLOCK = 2**10


def _write_csv(path: Path, header: Sequence[str], chunks: Iterable[Sequence[float]]) -> None:
    """Write rows as they arrive, so a generator's rows are never all held.

    The chunks hold the values row after row, ``len(header)`` to a row: a
    chunk is one row or a block of them (``_array_chunks``).  Each
    ``CSV_BLOCK`` rows are formatted by one ``%`` over a repeated line
    template.
    """
    width = len(header)
    line = ",".join(["%.12e"] * width) + "\n"
    values = itertools.chain.from_iterable(chunks)

    def lines():
        yield ",".join(header) + "\n"
        while block := tuple(itertools.islice(values, CSV_BLOCK * width)):
            yield line * (len(block) // width) % block

    _write_atomic(path, lines())


def _array_chunks(array):
    """The values of a 2-D array, row after row, as lists of ``CSV_BLOCK`` rows."""
    return (array[i:i + CSV_BLOCK].ravel().tolist() for i in range(0, len(array), CSV_BLOCK))


def _print_table(pairs: Sequence[tuple[str, str]]) -> None:
    width = max(len(k) for k, _ in pairs)
    for key, value in pairs:
        print(f"  {key:<{width}}  {value}")


def cmd_params(cfg: RunConfig, out: Path) -> int:
    eff = cfg.effective()
    ro = cfg.readout()
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


def cmd_current(cfg: RunConfig, out: Path) -> int:
    from .readout import current_transients

    curves = current_transients(cfg.readout(), cfg.current_tau_max,
                                cfg.current_points)
    _write_csv(
        out / "current.csv",
        ("tau", "I_nb0", "I_nb1", "I_nb2", "I_nb3", "residual"),
        zip(curves.tau, *curves.normalized, curves.residual),
    )
    print(f"wrote {out / 'current.csv'} ({len(curves.tau)} samples)")
    _print_table([
        ("stationary I/gain (n_b=1)", f"{curves.normalized[1][-1]:.12e}"),
        ("stationary I/gain (n_b=2)", f"{curves.normalized[2][-1]:.12e}"),
        ("stationary I/gain (n_b=3)", f"{curves.normalized[3][-1]:.12e}"),
        ("max ODE residual", f"{curves.max_residual:.3e}"),
    ])
    return 0


def cmd_entropy(cfg: RunConfig, out: Path) -> int:
    import numpy as np

    from .entanglement import entropy_n12_series, linear_entropies

    cfg.triple()  # refuse the config's amplitudes before any file is written
    alpha = complex(cfg.alpha_re, cfg.alpha_im)
    theta_t = np.linspace(0.0, cfg.theta_t_max, cfg.entropy_points)
    abs_alphas = np.linspace(0.0, cfg.alpha_max, cfg.alpha_points)

    # one series at a time: each is written before the next is computed
    def curve_rows():
        for beta, gamma in ENTROPY_CURVE_SETS:
            curves = linear_entropies(cfg.triple(beta=beta, gamma=gamma), theta_t)[:3]
            amplitudes = (alpha.real, alpha.imag, beta.real, beta.imag, gamma.real, gamma.imag)
            yield from _array_chunks(
                np.column_stack((np.tile(amplitudes, (theta_t.size, 1)), theta_t, *curves)))

    def grid_rows():
        for abs_alpha in abs_alphas:
            e_n_12 = entropy_n12_series(cfg.triple(alpha=complex(abs_alpha)), theta_t)[0]
            yield from _array_chunks(
                np.column_stack((theta_t, np.full(theta_t.size, abs_alpha), e_n_12)))

    curve_header = (
        "alpha_re", "alpha_im", "beta_re", "beta_im", "gamma_re", "gamma_im",
        "theta_t", "E_N12", "E_1N2", "E_2N1",
    )
    _write_csv(out / "entropy_curves.csv", curve_header, curve_rows())
    _write_csv(out / "entropy_alpha_grid.csv", ("theta_t", "abs_alpha", "E_N12"), grid_rows())

    print(f"wrote {out / 'entropy_curves.csv'} ({len(ENTROPY_CURVE_SETS) * theta_t.size} rows)")
    print(f"wrote {out / 'entropy_alpha_grid.csv'} ({abs_alphas.size * theta_t.size} rows)")
    return 0


def cmd_cat(cfg: RunConfig, out: Path) -> int:
    from .entanglement import cat_dims, cat_state_check

    triple = cfg.triple()
    dims = cat_dims(triple)
    report = cat_state_check(triple, dims)
    odd = math.nan if report.odd_fidelity is None else report.odd_fidelity
    _write_csv(
        out / "cat_report.csv",
        ("even_fidelity", "odd_fidelity", "even_weight", "odd_weight", "reassembly_fidelity"),
        [(report.even_fidelity, odd, report.even_weight, report.odd_weight,
          report.reassembly_fidelity)],
    )
    print(f"wrote {out / 'cat_report.csv'}")
    _print_table([
        ("even-branch fidelity", f"{report.even_fidelity:.12e}"),
        ("odd-branch fidelity", "n/a" if report.odd_fidelity is None else f"{report.odd_fidelity:.12e}"),
        ("even weight", f"{report.even_weight:.6e}"),
        ("odd weight", f"{report.odd_weight:.6e}"),
        ("reassembly fidelity", f"{report.reassembly_fidelity:.12e}"),
        ("cutoffs (d_N, d_1, d_2)", str(dims)),
    ])
    return 0


def cmd_classical(cfg: RunConfig, out: Path) -> int:
    import numpy as np

    from .circuit import classical_averaging

    run = cfg.classical()
    report = classical_averaging(run)
    t, y = report.trajectory
    _write_csv(out / "trajectory.csv", ("t", "Q1", "P1", "Q2", "P2"),
               _array_chunks(np.column_stack((t, *y))))
    _write_csv(
        out / "classical_report.csv",
        ("estimated_omega", "predicted_omega", "rel_error", "drive_nu", "x0_over_d"),
        [(report.estimated_omega, report.predicted_omega, report.rel_error, run.params.nu,
          cfg.classical_x0_over_d)],
    )
    print(f"wrote {out / 'trajectory.csv'} ({t.size} samples)")
    print(f"wrote {out / 'classical_report.csv'}")
    _print_table([
        ("spectral peak [rad/s]", f"{report.estimated_omega:.12e}"),
        ("averaged prediction [rad/s]", f"{report.predicted_omega:.12e}"),
        ("relative error", f"{report.rel_error:.3e}"),
    ])
    return 0


def cmd_verify(cfg: RunConfig, out: Path) -> int:
    import json

    from .verify import run_all

    results = run_all(cfg)
    payload = {
        "passed": all(r.passed for r in results),
        "checks": [r.as_dict() for r in results],
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    _write_atomic(out / "verify.json", [text + "\n"])
    for r in results:
        mark = " ok " if r.passed else "FAIL"
        print(f"[{mark}] {r.name}: residual {r.residual:.3e} (tolerance {r.tolerance:.3e})")
    print(f"wrote {out / 'verify.json'}")
    if not payload["passed"]:
        failed = ", ".join(r.name for r in results if not r.passed)
        print(f"verification failed: {failed}", file=sys.stderr)
        return 1
    return 0


def cmd_defaults(cfg: RunConfig, out: Path) -> int:
    sys.stdout.write(default_config_text())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", default=None,
                        help="plain-text key=value config (defaults when omitted)")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="directory for output files (created if missing)")
    common.add_argument("--strict", action="store_true",
                        help="treat the adiabatic-elimination regime warning (theta0/kappa2 "
                             f"or |theta|/kappa2 at or above {REGIME_LIMIT:g}) as an error")

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
        with warnings.catch_warnings():
            if args.strict:
                warnings.simplefilter("error", RegimeWarning)
            shown = set()

            def show(message, *_):
                if str(message) not in shown:
                    shown.add(str(message))
                    print(f"warning: {message}", file=sys.stderr)

            warnings.showwarning = show
            return args.func(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, RegimeWarning, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
