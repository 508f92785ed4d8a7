"""Show that the benchmark's output checks are not vacuous.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Feeds the checker two bad runs and expects a failure counted for each:

1. `sim verify` with ``verify_theta_scale = 1.1``, a deliberate mismatch
   that makes the program exit 1;
2. a clean `sim entropy` run whose ``entropy_curves.csv`` then has one
   value changed to a plausible one inside [0, 1], in a row the
   independent recomputation samples.

The clean entropy run must pass first, so the second failure is the
corruption's.  Exits 0 when both bad runs were caught.
"""

from __future__ import annotations

import json
import sys

import checks
import run

SEED = 0


def corrupt_entropy_value(inv: run.Invocation) -> str:
    """Change E_1N2 in a sampled row of entropy_curves.csv away from theta_t = 0.

    Away from theta_t = 0 only the independent recomputation can see the
    change.  Returns a description of it.
    """
    path = inv.out / "entropy_curves.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    row = next(i for i in checks.entropy_sample(len(lines) - 1, SEED)
               if float(lines[i + 1].split(",")[6]) != 0.0)
    fields = lines[row + 1].split(",")
    value = float(fields[8])
    fields[8] = f"{value + 0.01 if value < 0.5 else value - 0.01:.12e}"
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return f"row {row}: E_1N2 {value:.12e} -> {fields[8]}"


def failing_checks(inv: run.Invocation) -> list[str] | None:
    """Names of the checks verify.json marks failed, or None without a report."""
    try:
        report = json.loads((inv.out / "verify.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return [c["name"] for c in report["checks"] if not c["passed"]]


def main() -> int:
    with run.scratch_dir("selftest") as work:
        cfg = dict(run.DEFAULTS, entropy_points=41, alpha_points=5)
        bad_verify = run.make_invocation(work, "bad-verify", "verify", {"verify_theta_scale": 1.1})
        entropy = run.make_invocation(work, "entropy", "entropy", cfg)

        results = []
        outcome = run.execute(bad_verify, SEED)
        if failing_checks(bad_verify) != ["entropy_oracle"]:
            print("FAIL: verify did not fail on entropy_oracle alone; the test is inconclusive")
            return 1
        results.append(("verify with verify_theta_scale = 1.1", outcome.problems))
        clean = run.execute(entropy, SEED)
        if clean.problems:
            print(f"FAIL: the clean entropy run did not pass: {clean.problems}")
            return 1
        change = corrupt_entropy_value(entropy)
        problems = checks.check("entropy", cfg, entropy.out, "", 0, SEED)
        results.append((f"entropy_curves.csv with {change}", problems))

    caught = 0
    for name, problems in results:
        verdict = "counted as failed" if problems else "NOT caught"
        caught += bool(problems)
        print(f"{name}: {verdict}: {'; '.join(problems[:2])}")
    print(f"{caught} of {len(results)} bad runs counted as failures")
    return 0 if caught == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
