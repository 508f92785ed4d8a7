"""Benchmark of the `sim` command-line toolkit, run as users run it.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify_default --seed 1 --seconds 20 --trace 0

Every invocation is a fresh ``python -m nemsqnd.cli`` process on this
checkout's own ``src`` tree; the program sees only the config files
generated here from ``--seed``.  After each repeat, outside the timed
region, every artifact the runs wrote is checked (see ``checks.py``).

``--trace 0`` repeats the workload until ``--seconds`` have passed, and
at least three times, and reports the end-to-end metrics: ``wall_s``
(one repeat's invocations, each at its median wall time over the
repeats), ``setup_s`` (median wall time of a fresh ``defaults``
invocation), ``peak_rss_mb`` (median over repeats of the largest child
max-RSS) and ``pass_ratio`` (checked invocations that passed, over
those attempted).  ``--trace 1`` runs the workload once
untraced and once under ``probe.py`` and reports the per-layer metrics.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it record the environment,
the known limits and a readable table of every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"

#: BLAS/OpenMP threads given to every child; fixed so that two commits
#: are measured alike (`cat` takes 5.9 s with 2 threads and 8.3 s with 1)
BLAS_THREADS = "2"

#: seconds one invocation may take before it is killed and counted failed
INVOCATION_TIMEOUT_S = 60.0

#: timed `defaults` invocations behind the setup_s median
SETUP_SAMPLES = 6

#: repeats behind each invocation's median, however long one repeat takes;
#: with a time limit alone, a slow spell would leave fewer repeats and the
#: median of two (their mean) would keep the slow one
MIN_REPEATS = 3

#: fresh-process imports behind the cli.import_s median
IMPORT_SAMPLES = 3

COMMANDS = ("params", "current", "entropy", "classical", "verify")

# Documented defaults for every key an output check reads.  Generated
# configs spell these out, so the checks never depend on the program's
# own defaults.
DESK_D = 1e-8
DESK_NU = 2.0 * math.pi * 1e9
DESK_M = checks.HBAR / (DESK_D**2 * DESK_NU * 1e-6)
DEFAULTS: dict[str, float | int] = {
    "d": DESK_D, "nu": DESK_NU, "m": DESK_M,
    "alpha_re": 2.0, "alpha_im": 0.0, "beta_re": 2.0, "beta_im": 0.0,
    "gamma_re": 2.0, "gamma_im": 0.0,
    "entropy_points": 201, "theta_t_max": 2.0 * math.pi,
    "alpha_max": 3.0, "alpha_points": 21,
    "current_points": 200, "current_tau_max": 10.0,
    "classical_x0_over_d": math.sqrt(2.0) * 1e-3, "classical_nu_factor": 20.0,
    "classical_periods": 250, "classical_samples": 8192,
    "tol_current_ode": 1e-8, "tol_classical_peak": 2e-2,
}

KNOWN_LIMITS = (
    "verify_default is pinned to the documented defaults because `sim verify` "
    "failed elsewhere when this benchmark was written: cat_fidelity at |alpha|=|beta|=|gamma|=1.5 "
    "(residual 1.56e-8 vs tolerance 1e-10); separability_12 at |alpha|=2, "
    "|beta|=2.5, |gamma|=1.5 with complex phases (1.17e-8 vs 1e-8); "
    "TruncationError for |alpha| >= 2.5 at oracle_dim = 30. These are open "
    "defects, not coverage."
)


@dataclass
class Invocation:
    command: str
    config: dict | None  # None: an empty config file, i.e. the program's defaults
    config_path: Path
    out: Path


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str]


# ---------------------------------------------------------------------------
# workloads


def latin_hypercube(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k values in [lo, hi], one per equal stratum, in seeded order.

    Each value lands in its own stratum, so the sum over the k configs
    (and with it the work of one repeat) barely moves with the seed.
    """
    strata = list(range(k))
    rng.shuffle(strata)
    return [lo + (hi - lo) * (s + rng.random()) / k for s in strata]


def polar(magnitude: float, rng: random.Random) -> tuple[float, float]:
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return magnitude * math.cos(phase), magnitude * math.sin(phase)


def analytic_configs(rng: random.Random, k: int = 3) -> list[dict]:
    """Seeded amplitudes (|alpha| <= 6) and grid sizes for params/current/entropy.

    ``entropy_points`` follows from ``alpha_points`` so that each config
    evaluates about 5000 conditioned states.
    """
    alphas = latin_hypercube(rng, k, 0.5, 5.9)
    betas = latin_hypercube(rng, k, 0.5, 3.0)
    gammas = latin_hypercube(rng, k, 0.5, 3.0)
    alpha_points = latin_hypercube(rng, k, 11, 31)
    alpha_max = latin_hypercube(rng, k, 1.5, 6.0)
    current_points = latin_hypercube(rng, k, 100, 800)
    mass = latin_hypercube(rng, k, 0.5, 2.0)
    configs = []
    for i in range(k):
        cfg = dict(DEFAULTS)
        cfg["alpha_re"], cfg["alpha_im"] = polar(alphas[i], rng)
        cfg["beta_re"], cfg["beta_im"] = polar(betas[i], rng)
        cfg["gamma_re"], cfg["gamma_im"] = polar(gammas[i], rng)
        cfg["alpha_points"] = round(alpha_points[i])
        cfg["entropy_points"] = round(5000 / (4 + cfg["alpha_points"]))
        cfg["alpha_max"] = alpha_max[i]
        cfg["current_points"] = round(current_points[i])
        cfg["m"] = DESK_M * mass[i]
        configs.append(cfg)
    return configs


def classical_configs(rng: random.Random, k: int = 3) -> list[dict]:
    """Seeded drive strength, amplitude and run length for the Kirchhoff integrator.

    Frequency and amplitude strata are paired in opposite orders, so no
    config drives both hard, where the integrator's step count climbs
    steeply; run lengths take the stratum midpoints in seeded order,
    which fixes their sum.  The work of one repeat then barely moves
    with the seed.
    """
    nu = sorted(latin_hypercube(rng, k, 10.0, 40.0))
    x0 = sorted(latin_hypercube(rng, k, 1e-3, 3e-3), reverse=True)
    periods = [250 + 250 * (s + 0.5) / k for s in rng.sample(range(k), k)]
    configs = []
    for i in range(k):
        cfg = dict(DEFAULTS)
        cfg["classical_nu_factor"] = nu[i]
        cfg["classical_x0_over_d"] = x0[i]
        cfg["classical_periods"] = round(periods[i])
        configs.append(cfg)
    return configs


def write_config(path: Path, cfg: dict | None) -> None:
    lines = ["# generated by perfbench/run.py"]
    if cfg is not None:
        lines += [f"{key} = {value!r}" for key, value in cfg.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def plan(workload: str, seed: int, work: Path) -> list[Invocation]:
    """The invocations of one repeat; writes their config files under ``work``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify_default":
        runs = [("verify", None, 0)]
    elif workload == "analytic_sweep":
        runs = [(cmd, cfg, i) for i, cfg in enumerate(analytic_configs(rng))
                for cmd in ("params", "current", "entropy")]
    elif workload == "classical_sweep":
        runs = [("classical", cfg, i) for i, cfg in enumerate(classical_configs(rng))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [make_invocation(work, f"{workload}-{i}", cmd, cfg) for cmd, cfg, i in runs]


@contextlib.contextmanager
def scratch_dir(name: str):
    """A fresh working directory under .bench_work, removed on exit."""
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def make_invocation(work: Path, name: str, command: str, cfg: dict | None) -> Invocation:
    config_path = work / f"{name}.cfg"
    write_config(config_path, cfg)
    return Invocation(command, cfg, config_path, work / "out" / f"{name}-{command}")


# ---------------------------------------------------------------------------
# running


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, float, float, str]:
    """Run one child; returns (exit code, wall s, cpu s, max RSS MB, stdout)."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "w+", encoding="utf-8") as out, \
            open(log.with_suffix(".err"), "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0, stdout)


def cli_argv(inv: Invocation, spans: Path | None = None) -> list[str]:
    args = [inv.command, "--config", str(inv.config_path), "--out", str(inv.out)]
    if spans is None:
        return [sys.executable, "-m", "nemsqnd.cli", *args]
    return [sys.executable, str(PROBE), str(spans), *args]


def execute(inv: Invocation, seed: int, spans: Path | None = None) -> Outcome:
    """Run one invocation, then check its outputs outside the timed span."""
    inv.out.mkdir(parents=True, exist_ok=True)
    rc, wall, cpu, rss, stdout = spawn(cli_argv(inv, spans), inv.out.parent / f"{inv.out.name}.log")
    problems = checks.check(inv.command, inv.config, inv.out, stdout, rc, seed)
    return Outcome(wall, cpu, rss, problems)


def measure_setup(work: Path, samples: int) -> list[Outcome]:
    """Fresh `defaults` invocations, each timed and checked."""
    outcomes = []
    for _ in range(samples):
        rc, wall, cpu, rss, stdout = spawn(
            [sys.executable, "-m", "nemsqnd.cli", "defaults"], work / "setup.log")
        outcomes.append(Outcome(wall, cpu, rss, checks.check("defaults", None, work, stdout, rc)))
    return outcomes


# ---------------------------------------------------------------------------
# environment


def src_digest() -> tuple[str, int]:
    """sha256 over the package sources and their total line count."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC).rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


ENV_PROBE = """
import json, platform, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:
    blas = f"unknown ({exc!r})"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


def environment(work: Path) -> dict:
    rc, _, _, _, stdout = spawn([sys.executable, "-c", ENV_PROBE], work / "env.log")
    env = json.loads(stdout) if rc == 0 else {"versions": f"probe exited {rc}"}
    digest, _ = src_digest()
    env.update({
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "src_sha256": digest,
    })
    return env


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, list[Outcome]]:
    """Repeat the workload for ``seconds``; set-up samples bracket the repeats.

    The host's speed drifts over seconds, so the set-up samples are split
    before and after the repeats, and ``wall_s`` sums each invocation's
    median over the repeats, which a slow spell in one repeat cannot move.
    """
    invocations = plan(workload, seed, work)
    measure_setup(work, 1)  # warms the bytecode cache; not timed
    setup = measure_setup(work, SETUP_SAMPLES // 2)
    repeats: list[list[Outcome]] = []
    start = time.perf_counter()
    while len(repeats) < MIN_REPEATS or time.perf_counter() - start < seconds:
        repeats.append([execute(inv, seed) for inv in invocations])
    setup += measure_setup(work, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    outcomes = setup + [o for repeat in repeats for o in repeat]
    failed = sum(1 for o in outcomes if o.problems)
    metrics = {
        "wall_s": (sum(statistics.median(r[i].wall_s for r in repeats)
                       for i in range(len(invocations))), "s"),
        "setup_s": (statistics.median(o.wall_s for o in setup), "s"),
        "peak_rss_mb": (statistics.median(max(o.rss_mb for o in r) for r in repeats), "MB"),
        "pass_ratio": ((len(outcomes) - failed) / len(outcomes), "ratio"),
    }
    print(f"# {len(repeats)} repeats of {len(invocations)} invocations, wall s per repeat "
          f"{[round(sum(o.wall_s for o in r), 3) for r in repeats]}")
    return metrics, outcomes


def import_seconds(work: Path) -> float | None:
    code = ("import time; t = time.perf_counter(); import nemsqnd; "
            "print(time.perf_counter() - t)")
    samples = []
    for i in range(IMPORT_SAMPLES):
        rc, _, _, _, stdout = spawn([sys.executable, "-c", code], work / "import" / f"{i}.log")
        if rc == 0:
            samples.append(float(stdout))
    return statistics.median(samples) if samples else None


def traced_run(workload: str, seed: int, work: Path) -> tuple[dict, list[Outcome]]:
    """Untraced pass, the same pass under the probe, and probe runs of the rest.

    Span times are summed over every probed invocation: the workload's
    own, plus one default-config run of each subcommand it lacks, so
    that every layer is reported on every workload.
    """
    invocations = plan(workload, seed, work)
    measure_setup(work, 1)  # warms the bytecode cache as the timed run does
    untraced = [execute(inv, seed) for inv in invocations]
    traced_invs = [Invocation(i.command, i.config, i.config_path, i.out.with_name(i.out.name + "-traced"))
                   for i in invocations]
    have = {inv.command for inv in invocations}
    extras = [make_invocation(work, f"default-{cmd}", cmd, None if cmd == "verify" else dict(DEFAULTS))
              for cmd in COMMANDS if cmd not in have]
    probed = traced_invs + extras
    span_files = [work / "spans" / f"{n}.json" for n in range(len(probed))]
    span_files[0].parent.mkdir(parents=True, exist_ok=True)
    traced = [execute(inv, seed, spans) for inv, spans in zip(probed, span_files)]

    spans: dict[str, list[float]] = {}
    counts = {"rhs_calls": 0, "points": 0, "max_terms": 0}
    inproc: dict[str, float] = {}
    for path in span_files:
        if not path.exists():
            continue
        report = json.loads(path.read_text(encoding="utf-8"))
        inproc[report["command"]] = inproc.get(report["command"], 0.0) + report["main_s"]
        for name, (secs, calls) in report["spans"].items():
            total = spans.setdefault(name, [0.0, 0])
            total[0] += secs
            total[1] += calls
        counts["rhs_calls"] += report["rhs_calls"]
        counts["max_terms"] = max(counts["max_terms"], report["max_terms"])
    if "entanglement.conditioned_state" in spans:
        counts["points"] = spans["entanglement.conditioned_state"][1]

    def span(*names: str) -> float | None:
        found = [spans[n][0] for n in names if n in spans]
        return sum(found) if len(found) == len(names) else None

    metrics: dict[str, tuple[float | None, str]] = {
        "cli.import_s": (import_seconds(work), "s"),
        "config.load_s": (span("config.load_config"), "s"),
    }
    for cmd in COMMANDS:
        metrics[f"cli.{cmd}_inproc_s"] = (inproc.get(cmd), "s")
    metrics["cli.artifact_bytes"] = (
        sum(p.stat().st_size for inv in invocations for p in inv.out.iterdir()), "bytes")
    metrics.update({
        "entanglement.closed_form_s": (
            span("entanglement.conditioned_state", "entanglement.linear_entropies"), "s"),
        "entanglement.points": (counts["points"], "count"),
        "entanglement.max_terms": (counts["max_terms"], "count"),
        "entanglement.initial_state_s": (span("entanglement.initial_product_state"), "s"),
        "entanglement.exchange_evolve_s": (span("entanglement.exchange_evolve"), "s"),
        "fock.reduced_density_s": (span("fock.reduced_density"), "s"),
        "fock.linear_entropy_s": (span("fock.linear_entropy"), "s"),
    })
    for check, func in (("classical_averaging", "check_classical_averaging"),
                        ("current_ode", "check_current_ode"),
                        ("adiabatic_elimination", "check_elimination"),
                        ("entropy_oracle", "check_entropy_oracle"),
                        ("cat_fidelity", "check_cat_fidelity"),
                        ("separability_12", "check_separability")):
        metrics[f"verify.{check}_s"] = (span(f"verify.{func}"), "s")
    verify_out = next(inv.out for inv in probed if inv.command == "verify")
    try:
        results = json.loads((verify_out / "verify.json").read_text(encoding="utf-8"))["checks"]
        ratios = {c["name"]: c["residual"] / c["tolerance"] for c in results}
    except (OSError, ValueError, KeyError):
        ratios = {}
    for check in sorted(checks.VERIFY_CHECKS):
        metrics[f"verify.{check}.resid_ratio"] = (ratios.get(check), "ratio")
    metrics.update({
        "circuit.simulate_classical_s": (span("circuit.simulate_classical_circuit"), "s"),
        "circuit.rhs_calls": (counts["rhs_calls"], "count"),
        "circuit.estimate_frequency_s": (span("circuit.estimate_dominant_frequency"), "s"),
        "readout.integrate_mean_s": (span("readout.integrate_mean_qsde"), "s"),
        "readout.elimination_ode_s": (span("readout.full_two_mode_mean_dynamics"), "s"),
        "proc.cpu_s": (sum(o.cpu_s for o in untraced), "s"),
        "repo.src_lines": (src_digest()[1], "count"),
        "trace.overhead_s": (sum(o.wall_s for o in traced[:len(invocations)])
                             - sum(o.wall_s for o in untraced), "s"),
    })
    return metrics, untraced + traced


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_default", "analytic_sweep", "classical_sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nemsqnd" / "cli.py").is_file():
        print(f"error: no nemsqnd sources under {SRC}", file=sys.stderr)
        return 2
    with scratch_dir(args.workload) as work:
        if args.trace:
            metrics, outcomes = traced_run(args.workload, args.seed, work)
        else:
            metrics, outcomes = timed_run(args.workload, args.seed, args.seconds, work)
        print("# env " + json.dumps(environment(work), sort_keys=True))

    failed = [o for o in outcomes if o.problems]
    print("# known limits: " + KNOWN_LIMITS)
    for outcome in failed[:10]:
        print("# FAILED: " + "; ".join(outcome.problems[:3]))
    print(f"# failed_ratio {len(failed) / len(outcomes):.4f} ({len(failed)} of {len(outcomes)})")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<40} {'absent' if value is None else f'{value:.6g}'} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if value is not None},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
