"""Config parsing/validation and the `sim` command-line surface."""

import cmath
import csv
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nemsqnd
from nemsqnd.circuit import DRIVE_PERIOD_CAP
from nemsqnd.cli import main
from nemsqnd.config import (
    KEYS,
    RunConfig,
    default_config_text,
    load_config,
    parse_config_text,
)
from nemsqnd.errors import ConfigError


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return tuple(rows[0]), rows[1:]


# ---------------------------------------------------------------------------
# config parsing


def test_defaults_are_self_consistent():
    cfg = load_config(None)
    assert cfg.C1 == pytest.approx(8.8541878128e-15, rel=1e-12)
    assert cfg.alpha_re == 2.0 and cfg.alpha_im == 0.0
    eff = cfg.effective()
    # the defaults pin kappa2 at a hundred exchange rates and the
    # phonon-conditioned coupling at a millionth of the bare one
    assert cfg.kappa2 == pytest.approx(100.0 * eff.theta0, rel=1e-12)
    assert eff.theta_ratio == pytest.approx(-1e-6, rel=1e-9)
    ro = cfg.readout()
    assert ro.regime_ratios()["theta0/kappa2"] == pytest.approx(0.01, rel=1e-12)


def test_default_text_roundtrips():
    text = default_config_text()
    assert parse_config_text(text) == load_config(None)
    # every key appears exactly once
    keys = [line.split("=")[0].strip() for line in text.strip().splitlines()]
    assert keys == list(KEYS) == [f.name for f in fields(RunConfig)]


def _render(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


# per field type, values most keys accept mixed with values many reject
_FIELD_VALUES = {
    bool: st.booleans(),
    int: st.integers(2, 512) | st.integers(-3, 10_000),
    float: (st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
            | st.floats(allow_nan=False, allow_infinity=False)),
}
_FIELD_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_parsed_overrides_match_the_dataclass(data):
    """Any typed overrides, written as config text, parse to the same
    RunConfig the dataclass builds from them, or fail the same way."""
    names = data.draw(st.lists(st.sampled_from(list(_FIELD_TYPES)), unique=True, max_size=8))
    overrides = {name: data.draw(_FIELD_VALUES[_FIELD_TYPES[name]], label=name)
                 for name in names}
    text = "".join(f"{k} = {_render(v)}\n" for k, v in overrides.items())
    try:
        expected = RunConfig(**overrides)
    except ConfigError as exc:
        with pytest.raises(ConfigError, match=re.escape(str(exc))):
            parse_config_text(text)
    else:
        parsed = parse_config_text(text)
        assert parsed == expected
        assert {k: type(v) for k, v in vars(parsed).items()} == _FIELD_TYPES


def test_comments_blanks_and_overrides():
    cfg = parse_config_text(
        "# a comment line\n"
        "\n"
        "kappa1 = 2e7   # trailing comment\n"
        "n_terms = 40\n"
        "classical_toy = off\n"
        "oracle_dim = 60   # the cap\n"
    )
    assert cfg.kappa1 == 2e7
    assert cfg.n_terms == 40
    assert cfg.classical_toy is False
    assert cfg.oracle_dim == 60


@pytest.mark.parametrize("text,msg", [
    ("L1 = 1e-6\nbogus = 3\n", "line 2: unknown key 'bogus'"),
    ("L1 = 1e-6\nL1 = 2e-6\n", "line 2: duplicate key"),
    ("L1 1e-6\n", "line 1: expected 'key = value'"),
    ("n_terms = soup\n", "line 1: bad value for n_terms"),
    ("classical_toy = maybe\n", "line 1: bad value for classical_toy"),
    ("n_b = nan\n", "line 1: n_b must be finite"),
    ("L1 = 1e-6\ntheta_t_max = inf\n", "line 2: theta_t_max must be finite"),
    ("F_re = -inf\n", "line 1: F_re must be finite"),
])
def test_parse_errors_carry_line_numbers(text, msg):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert msg in str(err.value)


@pytest.mark.parametrize("text,msg", [
    ("L1 = -1e-6\n", "must be positive"),
    ("n_b = -0.5\n", "n_b must be nonnegative"),
    ("n_terms = 0\n", "n_terms must be in"),
    ("alpha_max = 6.5\n", "alpha_max must be in"),
    pytest.param("entropy_points = 1\n", r"entropy_points must be in \[2, 10000\]",
                 id="entropy_points = 1\n-must be >= 2"),
    ("entropy_points = 1000000000\n", r"entropy_points must be in \[2, 10000\]"),
    ("classical_samples = 512\n", "classical_samples"),
    ("classical_periods = 100000\nclassical_nu_factor = 5.3\n",
     r"classical_periods \* classical_nu_factor must be <= 524288"),
    ("classical_x0_over_d = 1.5\n", "below 1"),
    ("oracle_dim = 1\n", "oracle_dim"),
    ("oracle_dim = 61\n", "oracle_dim"),
])
def test_semantic_validation(text, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_config_text(text)


def test_dataclass_rejects_non_finite_floats():
    """Library callers get the finiteness check the config parser applies."""
    for f in fields(RunConfig):
        if type(f.default) is not float:
            continue
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=f"^{f.name} must be finite$"):
                RunConfig(**{f.name: value})


def test_dataclass_rejects_mistyped_values():
    """Built directly, RunConfig refuses a bool, int or float field of
    another type, before any finiteness or range check can compare or
    allocate with it."""
    for f in fields(RunConfig):
        kind = type(f.default)
        if kind is bool:
            for value in ("false", 0, 1.0, None):
                with pytest.raises(ConfigError, match=f"^{f.name} must be a boolean$"):
                    RunConfig(**{f.name: value})
        elif kind is int:
            for value in (float(f.default), f.default + 0.5, str(f.default), True, None):
                with pytest.raises(ConfigError, match=f"^{f.name} must be an integer$"):
                    RunConfig(**{f.name: value})
        else:
            for value in ("1e-6", None, True):
                with pytest.raises(ConfigError, match=f"^{f.name} must be a number$"):
                    RunConfig(**{f.name: value})


def test_dataclass_bounds_grid_sizes():
    """Built directly, RunConfig bounds every grid size and the number of
    drive periods of the classical run, each at its upper end inclusive."""
    slow_drive = {"classical_nu_factor": 1.0}
    for name, high, rest in (("entropy_points", 10_000, {}), ("alpha_points", 1_000, {}),
                             ("current_points", 100_000, {}),
                             ("classical_samples", 2**18, {}),
                             ("classical_periods", 100_000, slow_drive)):
        assert getattr(RunConfig(**{name: high}, **rest), name) == high
        with pytest.raises(ConfigError, match=f"^{name} must be in "):
            RunConfig(**{name: high + 1}, **rest)
    RunConfig(classical_periods=1024, classical_nu_factor=DRIVE_PERIOD_CAP / 2048)
    with pytest.raises(ConfigError, match="classical_nu_factor must be <= "):
        RunConfig(classical_periods=1024, classical_nu_factor=DRIVE_PERIOD_CAP / 2047)


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.conf")
    bad = tmp_path / "bad.conf"
    bad.write_bytes(b"\xff\xfe junk")
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(bad)


def test_builders():
    cfg = load_config(None)
    phys = cfg.physical()
    assert phys.L1 == cfg.L1 and phys.A == cfg.A
    assert cfg.readout(strict=True).strict is True
    t = cfg.triple()
    assert t.alpha == 2.0 + 0j
    t2 = cfg.triple(beta=1j, gamma=0.5)
    assert (t2.alpha, t2.beta, t2.gamma) == (2.0 + 0j, 1j, 0.5 + 0j)


# ---------------------------------------------------------------------------
# CLI plumbing


def test_params_prints_tables(tmp_path, capsys):
    assert main(["params", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "effective circuit parameters" in out
    assert "readout regime" in out
    assert "1.000000e-02" in out  # theta0/kappa2 of the defaults


def test_current_artifact(tmp_path):
    assert main(["current", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "current.csv")
    assert header == ("tau", "I_nb0", "I_nb1", "I_nb2", "I_nb3", "residual")
    assert len(rows) == 200
    data = np.array(rows, dtype=float)
    assert np.all(data[:, 1] == 0.0)  # empty NEMS drives nothing
    assert np.all(np.diff(data[:, 2]) > 0)  # saturating rise
    # the three occupied curves sit in exact 1:2:3 proportion
    np.testing.assert_allclose(data[1:, 3], 2.0 * data[1:, 2], rtol=1e-11)
    np.testing.assert_allclose(data[1:, 4], 3.0 * data[1:, 2], rtol=1e-11)
    assert data[:, 5].max() <= 1e-8


def test_entropy_artifacts(tmp_path):
    conf = tmp_path / "small.conf"
    conf.write_text("entropy_points = 41\nalpha_points = 5\n")
    assert main(["entropy", "--config", str(conf), "--out", str(tmp_path)]) == 0

    header, rows = read_csv(tmp_path / "entropy_curves.csv")
    assert header == ("alpha_re", "alpha_im", "beta_re", "beta_im",
                      "gamma_re", "gamma_im", "theta_t", "E_N12", "E_1N2", "E_2N1")
    assert len(rows) == 4 * 41
    data = np.array(rows, dtype=float)
    start = data[data[:, 6] == 0.0]
    assert start.shape[0] == 4
    assert np.max(start[:, 7:]) <= 1e-10  # no mixing yet
    symmetric = data[(data[:, 2] == data[:, 4]) & (data[:, 3] == data[:, 5])]
    assert symmetric.size > 0
    np.testing.assert_array_equal(symmetric[:, 8], symmetric[:, 9])

    header, rows = read_csv(tmp_path / "entropy_alpha_grid.csv")
    assert header == ("theta_t", "abs_alpha", "E_N12")
    assert len(rows) == 5 * 41
    grid = np.array(rows, dtype=float)
    vacuum = grid[grid[:, 1] == 0.0]
    assert np.all(vacuum[:, 2] == 0.0)  # no phonons, no entanglement


def test_cat_artifact(tmp_path):
    conf = tmp_path / "cat.conf"
    conf.write_text("alpha_re = 1.0\nbeta_re = 1.2\ngamma_re = 1.2\n")
    assert main(["cat", "--config", str(conf), "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "cat_report.csv")
    assert header == ("even_fidelity", "odd_fidelity", "even_weight",
                      "odd_weight", "reassembled_norm", "reassembly_fidelity")
    (row,) = rows
    vals = dict(zip(header, map(float, row)))
    assert 0.999 < vals["even_fidelity"] <= 1.0 + 1e-12
    # weights exceed 1 by exactly the squared projector overlap (~1e-5 here)
    assert vals["even_weight"] + vals["odd_weight"] == pytest.approx(1.0, abs=1e-4)
    assert vals["reassembled_norm"] == pytest.approx(1.0, abs=1e-9)
    assert vals["reassembly_fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_classical_artifacts(tmp_path):
    assert main(["classical", "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "trajectory.csv")
    assert header == ("t", "Q1", "P1", "Q2", "P2")
    assert len(rows) == 8192
    header, rows = read_csv(tmp_path / "classical_report.csv")
    assert header == ("estimated_omega", "predicted_omega", "rel_error",
                      "drive_nu", "x0_over_d")
    (row,) = rows
    report = dict(zip(header, map(float, row)))
    assert report["rel_error"] <= 2e-2
    assert report["drive_nu"] == pytest.approx(20.0 * report["predicted_omega"],
                                               rel=1e-6)


def test_verify_passes_and_writes_report(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("[ ok ]") == 6
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert names == ["classical_averaging", "current_ode", "adiabatic_elimination",
                     "entropy_oracle", "cat_fidelity", "separability_12"]
    for check in payload["checks"]:
        assert check["passed"] is True
        assert 0.0 <= check["residual"] < check["tolerance"]
        assert isinstance(check["detail"], str) and check["detail"]


@pytest.mark.parametrize("amplitudes", [
    (1.5, 1.5, 1.5), (1.0, 1.2, 1.1), (2.5, 2.0, 2.0),
    (2.0, 2.5 * cmath.exp(0.7j), 1.5 * cmath.exp(-1.1j)),
])
def test_verify_passes_off_the_default_amplitudes(tmp_path, capsys, amplitudes):
    """Where the cat branches still overlap visibly, the cat check judges the
    exact overlapping-branch fidelities; with cutoffs derived from the
    amplitudes, a larger phonon amplitude and a complex resonator pair pass
    too."""
    conf = tmp_path / "amplitudes.conf"
    conf.write_text("".join(
        f"{name}_re = {complex(value).real!r}\n{name}_im = {complex(value).imag!r}\n"
        for name, value in zip(("alpha", "beta", "gamma"), amplitudes)))
    assert main(["verify", "--config", str(conf), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.count("[ ok ]") == 6


def test_verify_catches_tampered_physics(tmp_path, capsys):
    """Scaling the conditioned coupling on one side of the oracle comparison
    must be flagged — the cross-check is not allowed to be a tautology."""
    conf = tmp_path / "tampered.conf"
    conf.write_text("verify_theta_scale = 1.1\n")
    assert main(["verify", "--config", str(conf), "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "entropy_oracle" in captured.err
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["passed"] is False
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["entropy_oracle"]["passed"] is False
    assert by_name["cat_fidelity"]["passed"] is True


def test_exit_codes(tmp_path, capsys):
    assert main(["params", "--config", str(tmp_path / "absent.conf"),
                 "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    conf = tmp_path / "broken.conf"
    conf.write_text("nonsense = 1\n")
    assert main(["entropy", "--config", str(conf), "--out", str(tmp_path)]) == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    with pytest.raises(SystemExit):
        main([])


def test_artifacts_get_the_plain_file_mode(tmp_path):
    conf = tmp_path / "short.conf"
    conf.write_text("classical_periods = 20\nclassical_samples = 1024\n")
    out = tmp_path / "out"
    old = os.umask(0o022)
    try:
        assert main(["classical", "--config", str(conf), "--out", str(out)]) == 0
        assert main(["current", "--config", str(conf), "--out", str(out)]) == 0
        with open(out / "plain.txt", "w"):
            pass
    finally:
        os.umask(old)
    modes = {p.name: p.stat().st_mode for p in out.iterdir()}
    assert sorted(modes) == ["classical_report.csv", "current.csv", "plain.txt",
                             "trajectory.csv"]
    assert set(modes.values()) == {modes["plain.txt"]}


def test_exports_resolve():
    for name in nemsqnd.__all__:
        getattr(nemsqnd, name)


def test_out_directory_is_created(tmp_path):
    nested = tmp_path / "a" / "b"
    assert main(["current", "--out", str(nested)]) == 0
    assert (nested / "current.csv").is_file()


def test_artifacts_are_deterministic(tmp_path):
    conf = tmp_path / "small.conf"
    conf.write_text("entropy_points = 31\nalpha_points = 4\ncurrent_points = 64\n")
    runs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert main(["current", "--config", str(conf), "--out", str(out)]) == 0
        assert main(["entropy", "--config", str(conf), "--out", str(out)]) == 0
        runs.append(out)
    for name in ("current.csv", "entropy_curves.csv", "entropy_alpha_grid.csv"):
        a = (runs[0] / name).read_bytes()
        b = (runs[1] / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def project_scripts(pyproject_text):
    """The `name = "target"` entries of the `[project.scripts]` table.

    Read line by line rather than with `tomllib`, which Python 3.10 (still
    allowed by `requires-python`) does not have.  An entry written any other
    way is not returned, so the check below fails rather than passes.
    """
    scripts, in_table = {}, False
    for line in pyproject_text.splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
        elif in_table and (m := re.fullmatch(r'([\w.-]+)\s*=\s*"([^"]*)"', line)):
            scripts[m[1]] = m[2]
    return scripts


def test_console_script_prints_defaults(tmp_path):
    # `sim` is bound to nemsqnd.cli:main ...
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert project_scripts(pyproject.read_text())["sim"] == "nemsqnd.cli:main"

    # ... and that entry point, run in a fresh process on the very package
    # this test imported (not an installed copy), prints the full defaults.
    src = str(Path(nemsqnd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nemsqnd.cli", "defaults"],
        capture_output=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == default_config_text().encode()
    assert proc.stderr == b""


def test_help_mentions_every_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
