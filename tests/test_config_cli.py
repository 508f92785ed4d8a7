"""Config parsing/validation and the `sim` command-line surface."""

import ast
import cmath
import csv
import fnmatch
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nemsqnd
from nemsqnd import cli, entanglement, verify
from nemsqnd.circuit import EPS0, HBAR, PhysicalCircuitParams, classical_averaging, effective_params
from nemsqnd.cli import main
from nemsqnd.config import (
    DRIVE_PERIOD_CAP,
    KEYS,
    RESONANCE_RTOL,
    SCHEMA,
    RunConfig,
    default_config_text,
    load_config,
    parse_config_text,
)
from nemsqnd.errors import ConfigError
from nemsqnd.readout import REGIME_LIMIT
from nemsqnd.verify import run_all


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return tuple(rows[0]), rows[1:]


# ---------------------------------------------------------------------------
# config parsing


def test_defaults_are_self_consistent():
    cfg = load_config(None)
    # the literal desk defaults are exactly what their derivation gives
    d, area, nu, omega = 1e-8, 1e-10, 2.0 * math.pi * 1e9, 6e9
    c1 = EPS0 * area / d / 10.0
    l1 = 1.0 / (omega**2 * c1)
    m = HBAR / (d**2 * nu * 1e-6)  # pins |theta/theta0| to 1e-6
    circuit = {"L1": l1, "L2": l1, "C1": c1, "C2": c1, "d": d, "A": area, "m": m, "nu": nu}
    kappa2 = 100.0 * effective_params(PhysicalCircuitParams(**circuit)).theta0
    desk = {**circuit, "kappa1": 1e7, "kappa2": kappa2, "F_im": 2.5 * kappa2}
    assert {key: getattr(cfg, key) for key in desk} == desk
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
    assert keys == list(KEYS) == list(SCHEMA) == list(RunConfig._fields)


def test_readme_config_table_names_every_key():
    """The README's config table names exactly the keys: each key matches
    a backticked token (a key or a glob such as ``tol_*``) of the keys
    column, and each token matches some key."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("| ")]
    assert rows[0][2].strip() == "keys"
    tokens = [tok for row in rows[1:] for span in re.findall(r"`([^`]*)`", row[2])
              for tok in span.split()]
    for key in KEYS:
        assert any(fnmatch.fnmatchcase(key, tok) for tok in tokens), key
    for tok in tokens:
        assert any(fnmatch.fnmatchcase(key, tok) for key in KEYS), tok


# per field type, values most keys accept mixed with values many reject
_FIELD_VALUES = {
    int: st.integers(2, 512) | st.integers(-3, 10_000),
    float: (st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
            | st.floats(allow_nan=False, allow_infinity=False)),
}
_FIELD_TYPES = {key: type(default) for key, (default, _) in SCHEMA.items()}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_parsed_overrides_match_the_dataclass(data):
    """Any typed overrides, written as config text, parse to the same
    RunConfig the record builds from them, or fail the same way."""
    names = data.draw(st.lists(st.sampled_from(list(_FIELD_TYPES)), unique=True, max_size=8))
    overrides = {name: data.draw(_FIELD_VALUES[_FIELD_TYPES[name]], label=name)
                 for name in names}
    text = "".join(f"{k} = {v!r}\n" for k, v in overrides.items())
    try:
        expected = RunConfig(**overrides)
    except ConfigError as exc:
        with pytest.raises(ConfigError, match=re.escape(str(exc))):
            parse_config_text(text)
    else:
        parsed = parse_config_text(text)
        assert parsed == expected
        assert {k: type(v) for k, v in parsed._asdict().items()} == _FIELD_TYPES


def test_comments_blanks_and_overrides():
    cfg = parse_config_text(
        "# a comment line\n"
        "\n"
        "kappa1 = 2e7   # trailing comment\n"
        "alpha_points = 40\n"
        "current_points = 100000   # the cap\n"
    )
    assert cfg.kappa1 == 2e7
    assert cfg.alpha_points == 40
    assert cfg.current_points == 100_000


@pytest.mark.parametrize("text,msg", [
    ("L1 = 1e-6\nbogus = 3\n", "line 2: unknown key 'bogus'"),
    ("L1 = 1e-6\nL1 = 2e-6\n", "line 2: duplicate key"),
    ("L1 1e-6\n", "line 1: expected 'key = value'"),
    ("alpha_points = soup\n", "line 1: bad value for alpha_points"),
    ("classical_toy = true\n", "line 1: unknown key 'classical_toy'"),
    ("n_terms = 30\n", "line 1: unknown key 'n_terms'"),
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
    ("alpha_points = 1\n", "alpha_points must be in"),
    ("alpha_max = 6.5\n", "alpha_max must be in"),
    ("current_tau_max = 1001\n", r"current_tau_max must be <= 1000\.0"),
    pytest.param("entropy_points = 1\n", r"entropy_points must be in \[2, 10000\]",
                 id="entropy_points = 1\n-must be >= 2"),
    ("entropy_points = 1000000000\n", r"entropy_points must be in \[2, 10000\]"),
    ("classical_samples = 512\n", "classical_samples"),
    ("classical_periods = 100000\nclassical_nu_factor = 5.3\n",
     r"classical_periods \* classical_nu_factor must be <= 524288"),
    ("classical_x0_over_d = 1.5\n", "below 1"),
    # at the drive-period cap the default samples alias the Q1 peak
    ("classical_periods = 26214\n", r"^classical_samples must be at least 52706 for 26214 "),
    ("classical_periods = 4076\n", "^classical_samples must be at least 8203 "),
    # at 1 period the fit reads the DC bin, at 2 to 4 the peak's mirror about DC
    ("classical_periods = 1\n", "^classical_periods must be at least 5, or the Q1 peak's mirror "),
    ("classical_periods = 4\nclassical_samples = 1024\n", "^classical_periods must be at least 5,"),
    # a removed key: the oracle cutoffs come from the amplitudes alone
    pytest.param("oracle_dim = 1\n", "line 1: unknown key 'oracle_dim'",
                 id="oracle_dim = 1\n-oracle_dim"),
    pytest.param("oracle_dim = 61\n", "line 1: unknown key 'oracle_dim'",
                 id="oracle_dim = 61\n-oracle_dim"),
    # removed keys: `verify` derives these four gates itself
    *(pytest.param(f"{key} = 1.0\n", f"line 1: unknown key '{key}'", id=key)
      for key in ("tol_elimination", "tol_entropy_oracle", "tol_cat_fidelity",
                  "tol_separability")),
    # removed keys: the constants ``RESONANCE_RTOL`` and ``circuit.CLASSICAL_RTOL``
    *(pytest.param(f"{key} = 1e-9\n", f"line 1: unknown key '{key}'", id=key)
      for key in ("classical_rtol", "resonance_rtol")),
])
def test_semantic_validation(text, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_config_text(text)


def test_a_run_refuses_resonators_detuned_past_the_resonance_limit():
    """``RunConfig.effective`` judges the circuit at ``RESONANCE_RTOL``:
    a 1e-12 detuning of L2 passes, a 1e-6 one is refused by name."""
    L1 = RunConfig().L1
    RunConfig(L2=L1 * (1 + 1e-12)).effective()
    with pytest.raises(ValueError, match=rf"\(tolerance {RESONANCE_RTOL:.3e}\)"):
        RunConfig(L2=L1 * (1 + 1e-6)).effective()


@pytest.mark.parametrize("samples", [1024, 8192])
def test_the_fewest_admitted_classical_periods_pass_their_check(samples):
    """At 5 periods, the fewest the DC rule admits, the spectral peak still
    lands within the averaging check's gate."""
    cfg = RunConfig(classical_periods=5, classical_samples=samples)
    assert classical_averaging(cfg.classical()).rel_error <= cfg.tol_classical_peak


def test_dataclass_rejects_non_finite_floats():
    """Library callers get the finiteness check the config parser applies."""
    for key, (default, _) in SCHEMA.items():
        if type(default) is not float:
            continue
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=f"^{key} must be finite$"):
                RunConfig(**{key: value})


def test_dataclass_rejects_mistyped_values():
    """Built directly, RunConfig refuses an int or float field of another
    type, before any finiteness or range check can compare or allocate
    with it."""
    for key, (default, _) in SCHEMA.items():
        if type(default) is int:
            for value in (float(default), default + 0.5, str(default), True, None):
                with pytest.raises(ConfigError, match=f"^{key} must be an integer$"):
                    RunConfig(**{key: value})
        else:
            for value in ("1e-6", None, True):
                with pytest.raises(ConfigError, match=f"^{key} must be a number$"):
                    RunConfig(**{key: value})


def test_dataclass_bounds_grid_sizes():
    """Built directly, RunConfig bounds every grid size and the number of
    drive periods of the classical run, each at its upper end inclusive."""
    slow_drive = {"classical_nu_factor": 1.0, "classical_samples": 2**18}
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


_DEFAULT = RunConfig()


@pytest.mark.parametrize("record,bad", [
    (_DEFAULT, {"alpha_points": 1}),
    (_DEFAULT, {"L1": math.nan}),
    (_DEFAULT, {"entropy_points": 2.5}),
    (_DEFAULT, {"classical_periods": 1}),
    (_DEFAULT.physical(), {"nu": 0.0}),
    (_DEFAULT.classical(), {"t_span": (1.0, 0.0)}),
    (_DEFAULT.readout(), {"kappa1": 0.0}),
    (_DEFAULT.readout(), {"F": 1e308j, "kappa2": 1e-3}),
    (_DEFAULT.triple(), {"alpha": 7.0}),
    (_DEFAULT.triple(), {"beta": complex(math.inf, 0.0)}),
], ids=lambda v: type(v).__name__ if not isinstance(v, dict) else ",".join(v))
def test_records_refuse_through_replace_and_make(record, bad):
    """A validating record's ``_replace`` and ``_make`` refuse what its
    constructor refuses, with the same message: namedtuple's own build the
    tuple without ``__new__``.  A good ``_replace`` normalises as the
    constructor does."""
    values = {**record._asdict(), **bad}
    with pytest.raises(ValueError) as built:
        type(record)(**values)
    message = f"^{re.escape(str(built.value))}$"
    with pytest.raises(type(built.value), match=message):
        record._replace(**bad)
    with pytest.raises(type(built.value), match=message):
        type(record)._make(values.values())
    assert type(record)._make(record) == record
    if "F" in bad:
        assert type(record._replace(F=2).F) is complex
    if "alpha" in bad:
        assert type(record._replace(alpha=1).alpha) is complex


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.conf")
    bad = tmp_path / "bad.conf"
    bad.write_bytes(b"\xff\xfe junk")
    with pytest.raises(ConfigError, match="UTF-8"):
        load_config(bad)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_load_config_skips_a_byte_order_mark(tmp_path, capsys, newline):
    """A config saved with a UTF-8 byte-order mark gives the same run as
    the same file without it, with either line end."""
    text = newline.join(["alpha_re = 1.5", "# a comment", "kappa1 = 2e7", ""])
    plain, marked = tmp_path / "plain.conf", tmp_path / "marked.conf"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_config(marked) == load_config(plain) == RunConfig(alpha_re=1.5, kappa1=2e7)
    printed = []
    for conf in (plain, marked):
        assert main(["params", "--config", str(conf)]) == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]


def test_builders():
    cfg = load_config(None)
    phys = cfg.physical()
    assert phys.L1 == cfg.L1 and phys.A == cfg.A
    ro = cfg.readout()
    assert (ro.F, ro.kappa2, ro.L) == (complex(cfg.F_re, cfg.F_im), cfg.kappa2, cfg.L1)
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
                      "odd_weight", "reassembly_fidelity")
    (row,) = rows
    vals = dict(zip(header, map(float, row)))
    assert 0.999 < vals["even_fidelity"] <= 1.0 + 1e-12
    # weights exceed 1 by exactly the squared projector overlap (~1e-5 here)
    assert vals["even_weight"] + vals["odd_weight"] == pytest.approx(1.0, abs=1e-4)
    assert vals["reassembly_fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_cat_writes_the_closed_form_odd_fidelity_of_a_light_odd_branch(tmp_path, capsys):
    """The odd cat weighs 2e-4 here; at the common phonon cutoff its
    discarded tail moved the odd fidelity `sim cat` wrote by 9.9e-10."""
    conf = tmp_path / "light.conf"
    conf.write_text("alpha_re = 0.0126\nbeta_re = 1.0747\ngamma_re = 1.0747\n")
    assert main(["cat", "--config", str(conf), "--out", str(tmp_path)]) == 0
    header, (row,) = read_csv(tmp_path / "cat_report.csv")
    odd_target = verify.cat_fidelity_targets(load_config(conf).triple())[1]
    assert abs(float(row[header.index("odd_fidelity")]) - odd_target) <= 1e-10
    assert "cutoffs (d_N, d_1, d_2)  (4, 25, 25)\n" in capsys.readouterr().out


@pytest.mark.parametrize("alpha", [0.0, 0.0126, 0.3, 2.0])
def test_cat_and_its_check_evolve_at_the_same_cutoffs(tmp_path, monkeypatch, alpha):
    """`sim cat` and the `cat_fidelity` check hand `cat_state_check` the
    same cutoffs: one run, not a second computation."""
    seen = {}

    def recorder(caller, check):
        def record(triple, dims):
            seen[caller] = dims
            return check(triple, dims)
        return record

    monkeypatch.setattr(entanglement, "cat_state_check",
                        recorder("cat", entanglement.cat_state_check))
    monkeypatch.setattr(verify, "cat_state_check", recorder("verify", verify.cat_state_check))
    conf = tmp_path / "alpha.conf"
    conf.write_text(f"alpha_re = {alpha!r}\n")
    assert main(["cat", "--config", str(conf), "--out", str(tmp_path)]) == 0
    assert verify.check_cat_fidelity(load_config(conf)).passed
    assert seen["cat"] == seen["verify"]


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
    # separability read 1.200e-8 and 1.141e-8 here while its bound took in
    # the reflection of the sectors the resonator cutoffs cut off
    (1.8166 - 4.8497j, -2.4507 - 1.3577j, -1.7391 + 2.3282j),
    (0.0442 - 2.2481j, -0.5391 + 2.7634j, -2.4553 - 0.932j),
])
def test_verify_passes_off_the_default_amplitudes(tmp_path, capsys, amplitudes):
    """Where the cat branches still overlap visibly, the cat check judges the
    exact overlapping-branch fidelities; with cutoffs derived from the
    amplitudes, a larger phonon amplitude and complex resonator pairs pass
    too."""
    conf = tmp_path / "amplitudes.conf"
    conf.write_text("".join(
        f"{name}_re = {complex(value).real!r}\n{name}_im = {complex(value).imag!r}\n"
        for name, value in zip(("alpha", "beta", "gamma"), amplitudes)))
    assert main(["verify", "--config", str(conf), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.count("[ ok ]") == 6


def test_verify_reports_what_the_subcommands_write(tmp_path):
    """The current and classical checks judge the very numbers `sim current`
    and `sim classical` write: one run each, not a second computation."""
    conf = tmp_path / "short.conf"
    conf.write_text("current_points = 64\nclassical_periods = 20\nclassical_samples = 1024\n")
    assert main(["current", "--config", str(conf), "--out", str(tmp_path)]) == 0
    assert main(["classical", "--config", str(conf), "--out", str(tmp_path)]) == 0
    checks = {r.name: r for r in run_all(load_config(conf))}
    _, rows = read_csv(tmp_path / "current.csv")
    written = max(float(row[5]) for row in rows)
    assert float(f"{checks['current_ode'].residual:.12e}") == written
    header, (row,) = read_csv(tmp_path / "classical_report.csv")
    written = float(row[header.index("rel_error")])
    assert float(f"{checks['classical_averaging'].residual:.12e}") == written


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


# Each mutation moves the closed-form side of one `sim verify` check by about
# ten times its tolerance, at the name the check reads it from, and leaves the
# numerical side alone.  The separability mixture is built inside
# `separability_check_12`, from `entanglement.conditioned_state` at the
# check's phase; the entropy evaluators read the layer weights without it,
# so the stretch moves the mixture only.  The
# averaged resonance and the closed-form current are read by the runs `sim
# classical` and `sim current` share with `verify`,
# `circuit.classical_averaging` and `readout.current_transients`; the cat
# targets judge the run `sim cat` shares with it, `cat_state_check` at the
# `entanglement.cat_dims` cutoffs.

def _shift_averaged_resonance(effective_params, tol):
    def shifted(*args, **kwargs):
        eff = effective_params(*args, **kwargs)
        return eff._replace(omega_tilde1=eff.omega_tilde1 * (1 + 10 * tol))
    return shifted


def _scale_closed_form_current(mean_photocurrent, tol):
    def scaled(t, n_b, p):
        return [[v * (1 + 10 * tol) for v in row] for row in mean_photocurrent(t, n_b, p)]
    return scaled


def _grow_closed_form_current_with_n_b(mean_photocurrent, tol):
    # off by 1 + 5 tol (n_b - 1): right at n_b = 1, 1 + 10 tol at n_b = 3
    def grown(t, n_b, p):
        return [[v * (1 + 5 * tol * (n - 1)) for v in row]
                for n, row in zip(n_b, mean_photocurrent(t, n_b, p))]
    return grown


def _slow_eliminated_decay(readout_params, tol):
    class Mutated(readout_params):
        @property
        def decay_total(self):  # read by the eliminated model only
            return super().decay_total * (1 + 10 * tol)
    return Mutated


def _raise_analytic_e_n_12(linear_entropies, tol):
    def entropies(*args, **kwargs):
        e_n_12, *rest = linear_entropies(*args, **kwargs)
        return (e_n_12 + 10 * tol, *rest)
    return entropies


def _lower_even_cat_target(cat_fidelity_targets, tol):
    def targets(triple):
        even, odd = cat_fidelity_targets(triple)
        return even - 10 * tol, odd
    return targets


#: change of the separability bound per unit relative error of the mixing
#: phase, at the default amplitudes and theta_t = pi/2: layer n's branch
#: moves by n theta_t sqrt(|beta|^2 + |gamma|^2) per unit, so its term by
#: p_n times that, and the sum is theta_t sqrt(8) <n> = (pi/2) sqrt(8) 4
RHO12_PHASE_SLOPE = 17.77


def _stretch_mixture_phase(conditioned_state, tol):
    def state(triple, theta_t, *args, **kwargs):
        stretched = theta_t * (1 + 10 * tol / RHO12_PHASE_SLOPE)
        return conditioned_state(triple, stretched, *args, **kwargs)
    return state


#: case -> (the check it must fail, module, name, mutation)
CLOSED_FORM_MUTATIONS = {
    "classical_averaging": ("classical_averaging", "circuit", "effective_params",
                            _shift_averaged_resonance),
    "current_ode": ("current_ode", "readout", "mean_photocurrent", _scale_closed_form_current),
    "current_ode_nonlinear_in_n_b": ("current_ode", "readout", "mean_photocurrent",
                                     _grow_closed_form_current_with_n_b),
    "adiabatic_elimination": ("adiabatic_elimination", "verify", "ReadoutParams",
                              _slow_eliminated_decay),
    "entropy_oracle": ("entropy_oracle", "verify", "linear_entropies", _raise_analytic_e_n_12),
    "cat_fidelity": ("cat_fidelity", "verify", "cat_fidelity_targets", _lower_even_cat_target),
    "separability_12": ("separability_12", "entanglement", "conditioned_state",
                        _stretch_mixture_phase),
}


@pytest.mark.parametrize("case", list(CLOSED_FORM_MUTATIONS))
def test_each_verify_check_fails_alone_on_its_mutation(monkeypatch, case):
    """Every check can fail: its own mutation, sized from the tolerance the
    check reports unmutated, trips it and no other."""
    cfg = parse_config_text("current_points = 16\nclassical_periods = 20\n"
                            "classical_samples = 1024\n")
    check, module, name, mutate = CLOSED_FORM_MUTATIONS[case]
    tol = {r.name: r.tolerance for r in run_all(cfg)}[check]
    holder = importlib.import_module(f"nemsqnd.{module}")
    monkeypatch.setattr(holder, name, mutate(getattr(holder, name), tol))
    results = run_all(cfg)
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == [check]
    assert 5.0 < failed[0].residual / failed[0].tolerance < 20.0


def test_swapped_cat_weights_fail_the_cat_check_alone(monkeypatch):
    """The reassembly term of ``cat_fidelity`` reads the evolved state:
    with P+ and P- swapped where ``cat_state_check`` reads them, the
    reassembled state weighs each cat by the other's weight, its fidelity
    is 4 P+ P- = 1 - exp(-4|alpha|^2), and exactly that check fails."""
    weights = entanglement.cat_weights
    monkeypatch.setattr(entanglement, "cat_weights", lambda alpha: weights(alpha)[::-1])
    cfg = parse_config_text("current_points = 16\nclassical_periods = 20\n"
                            "classical_samples = 1024\n")
    failed = [r for r in run_all(cfg) if not r.passed]
    assert [r.name for r in failed] == ["cat_fidelity"]
    assert failed[0].residual == pytest.approx(math.exp(-16.0), rel=1e-6)


def test_the_alpha_grid_series_fails_the_entropy_oracle_alone(monkeypatch):
    """``entropy_n12_series``, which ``sim entropy`` writes along its alpha
    grid, is judged by the entropy oracle: 1% off, it fails that check and
    no other."""
    series = verify.entropy_n12_series

    def scaled(*args, **kwargs):
        e_n_12, bound = series(*args, **kwargs)
        return e_n_12 * 1.01, bound

    monkeypatch.setattr(verify, "entropy_n12_series", scaled)
    cfg = parse_config_text("current_points = 16\nclassical_periods = 20\n"
                            "classical_samples = 1024\n")
    assert [r.name for r in run_all(cfg) if not r.passed] == ["entropy_oracle"]


@pytest.mark.parametrize("point", [0, 2, 5])
@pytest.mark.parametrize("which", [0, 1, 2])
def test_entropy_oracle_fails_on_a_nan_discrepancy(monkeypatch, tmp_path, point, which):
    """A NaN analytic entropy fails the check at any oracle point and in
    any of the three entropies; ``max`` and ``>`` alone would drop it.
    ``sim verify`` then exits 1 and writes the residual as a strict-JSON
    null."""
    linear_entropies = verify.linear_entropies
    calls = []

    def entropies(*args, **kwargs):
        *curves, bound = linear_entropies(*args, **kwargs)
        if len(calls) == point:
            curves[which] = np.full_like(curves[which], np.nan)
        calls.append(args)
        return (*curves, bound)

    monkeypatch.setattr(verify, "linear_entropies", entropies)
    result = verify.check_entropy_oracle(RunConfig())
    assert len(calls) == len(verify._ORACLE_POINTS)
    assert not result.passed
    assert math.isnan(result.residual)
    a, b, g, theta_t = verify._ORACLE_POINTS[point]
    assert result.detail.startswith(f"worst at (alpha={a}, beta={b}, gamma={g}, ")

    def refuse(token):
        raise ValueError(f"{token} is not strict JSON")

    calls.clear()
    conf = tmp_path / "small.conf"
    conf.write_text("current_points = 16\nclassical_periods = 20\n"
                    "classical_samples = 1024\n")
    assert main(["verify", "--config", str(conf), "--out", str(tmp_path)]) == 1
    payload = json.loads((tmp_path / "verify.json").read_text(), parse_constant=refuse)
    assert [c["residual"] is None for c in payload["checks"]] == [
        c["name"] == "entropy_oracle" for c in payload["checks"]]


def test_verify_memory_at_the_defaults():
    """All six checks at the defaults hold at most 2.5 MiB at once (traced
    after a classical run has loaded the integrator and the FFT; 2.13 MiB
    measured with the sector-basis cache empty)."""
    cfg = RunConfig()
    classical_averaging(cfg.classical())
    tracemalloc.start()
    try:
        run_all(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


def test_entropy_streams_its_rows(tmp_path):
    """`sim entropy` writes its rows as they are made and holds one series
    at a time: 200,000 grid rows (2,000 phases by 100 amplitudes) stay
    within 4 MiB, traced after a small run has loaded the modules; holding
    every row took about 69 MiB."""
    small, large = tmp_path / "small.conf", tmp_path / "large.conf"
    small.write_text("entropy_points = 3\nalpha_points = 2\n")
    large.write_text("entropy_points = 2000\nalpha_points = 100\n")
    assert main(["entropy", "--config", str(small), "--out", str(tmp_path)]) == 0
    tracemalloc.start()
    try:
        assert main(["entropy", "--config", str(large), "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_block_csv_writer_formats_each_value_as_one_fstring(tmp_path):
    """The block writer's ``%`` template gives the bytes of one ``.12e``
    f-string per value, over edge values and across block boundaries,
    whether its chunks are array blocks or single rows."""
    edge = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.797e308, -1.5, 1 / 3]
    values = np.resize(edge, (2 * cli.CSV_BLOCK + 5) * 3).reshape(-1, 3)
    expected = "a,b,c\n" + "".join(
        ",".join(f"{float(v):.12e}" for v in row) + "\n" for row in values)
    cli._write_csv(tmp_path / "blocks.csv", ("a", "b", "c"), cli._array_chunks(values))
    cli._write_csv(tmp_path / "rows.csv", ("a", "b", "c"), values.tolist())
    assert (tmp_path / "blocks.csv").read_text() == expected
    assert (tmp_path / "rows.csv").read_text() == expected


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


@pytest.mark.parametrize("command", ["params", "current"])
def test_overflowing_probe_amplitude_exits_2_by_name(tmp_path, capsys, command):
    """Finite F_im = 1e308 and kappa2 = 1e-3 overflow -2iF/kappa2: the run
    exits 2 with a message that names both and writes nothing."""
    conf = tmp_path / "huge.conf"
    conf.write_text("F_im = 1e308\nkappa2 = 1e-3\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(conf), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: F = 1e+308j and kappa2 = 0.001 give a non-finite probe amplitude "
        "-2iF/kappa2 or current gain\n")
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["classical", "verify"])
def test_an_aliased_classical_run_exits_2(tmp_path, capsys, command):
    """26214 resonator periods at the drive-period cap, sampled 8192 times,
    would put the Q1 peak far past the Nyquist bin: refused by name."""
    conf = tmp_path / "aliased.conf"
    conf.write_text("classical_periods = 26214\nclassical_nu_factor = 20.0\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(conf), "--out", str(out)]) == 2
    assert "config error: classical_samples must be at least" in capsys.readouterr().err
    assert not out.exists()


#: finite config values whose derived circuit quantities, or whose joint
#: resonator intensity |beta|^2 + |gamma|^2, leave the float range, each
#: with the subcommands that reach them
FAR_FROM_THE_FLOAT_RANGE = [
    ({"L1": 1e-200, "C1": 1e-200, "nu": 1e-320}, ("params", "current", "verify")),
    ({"d": 1e200}, ("params", "current", "verify")),
    ({"m": 1e-300, "d": 1e-300}, ("params", "current", "verify")),
    ({"beta_re": 1e200}, ("entropy", "cat", "verify")),
    ({"gamma_im": 1e160}, ("entropy", "cat", "verify")),
]


@pytest.mark.parametrize("values,command", [
    (values, command) for values, commands in FAR_FROM_THE_FLOAT_RANGE for command in commands])
def test_values_past_the_float_range_exit_2_by_name(tmp_path, capsys, values, command):
    """Such a run exits 2 with one error line that names the values, and
    writes nothing."""
    conf = tmp_path / "far.conf"
    conf.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items())
                    + "classical_periods = 20\nclassical_samples = 1024\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(conf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    for key, value in values.items():
        # a circuit key by itself, beta_re and gamma_im as a part of beta and gamma
        name = key.split("_")[0]
        assert re.search(rf"\b{name} = \S*{re.escape(repr(value))}", err), (key, err)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["classical", "verify"])
def test_a_drive_period_past_the_float_range_exits_2(tmp_path, capsys, command):
    """At ``classical_nu_factor = 5e-324`` the drive period pi/nu is not a
    float: one error line says so, with no warning, and nothing is written.
    The run once sampled the period as 0 * inf, warned of an invalid value
    and blamed a constant series."""
    conf = tmp_path / "slow.conf"
    conf.write_text("classical_nu_factor = 5e-324\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(conf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: drive period pi/nu is not finite") and err.count("\n") == 1
    assert "warning:" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["current", "verify"])
def test_strict_refuses_a_run_outside_the_elimination_regime(tmp_path, capsys, command):
    """At kappa2 = 1e9 (theta0/kappa2 = 0.146) ``--strict`` exits 2 with the
    regime message and writes nothing; it leaves the caller's warning
    filters as it found them.  Without it the same run exits 0, writes its
    artifact and shows the message once, as one line, on every run in the
    process."""
    conf = tmp_path / "bad.conf"
    conf.write_text("kappa2 = 1e9\ncurrent_points = 16\n"
                    "classical_periods = 20\nclassical_samples = 1024\n")
    message = "theta0/kappa2 = 1.464e-01 is outside the adiabatic-elimination regime (limit 0.1)"
    strict_out = tmp_path / "strict"
    filters = list(warnings.filters)
    assert main([command, "--strict", "--config", str(conf), "--out", str(strict_out)]) == 2
    assert warnings.filters == filters
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(strict_out.iterdir()) == []
    artifact = {"current": "current.csv", "verify": "verify.json"}[command]
    for run in ("loose1", "loose2"):
        assert main([command, "--config", str(conf), "--out", str(tmp_path / run)]) == 0
        assert capsys.readouterr().err == f"warning: {message}\n"
        assert (tmp_path / run / artifact).is_file()


def test_strict_help_names_the_regime_it_polices(capsys):
    with pytest.raises(SystemExit):
        main(["current", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert (f"--strict treat the adiabatic-elimination regime warning (theta0/kappa2 "
            f"or |theta|/kappa2 at or above {REGIME_LIMIT:g}) as an error") in out


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


# The submodule each public name was imported from when the package still
# imported them all eagerly; the lazy table must reproduce it.
EXPORTED_FROM = {
    "circuit": """EPS0 HBAR ClassicalCircuitConfig EffectiveParams PhysicalCircuitParams
        effective_params equilibrium_capacitance estimate_dominant_frequency
        simulate_classical_circuit""".split(),
    "config": "RunConfig default_config_text load_config parse_config_text".split(),
    "entanglement": """CatStateReport CoherentTriple brute_force_entropies
        cat_state_check conditioned_state entropy_n12_series exchange_evolve
        initial_product_state linear_entropies oracle_dims separability_check_12""".split(),
    "errors": """ConditioningError ConfigError EstimationError IntegrationError
        RegimeWarning SimulationError TruncationError""".split(),
    "fock": "linear_entropy min_fock_dim poisson_tail reduced_density".split(),
    "readout": """ReadoutParams adiabatic_elimination_error
        full_two_mode_mean_dynamics integrate_mean_qsde mean_photocurrent""".split(),
    "verify": "CheckResult run_all".split(),
}


def test_exports_resolve():
    assert set(nemsqnd.__all__) <= set(dir(nemsqnd))
    source = {name: module for module, names in EXPORTED_FROM.items() for name in names}
    assert sorted(nemsqnd.__all__) == sorted(source)
    for name in nemsqnd.__all__:
        submodule = importlib.import_module(f"nemsqnd.{source[name]}")
        assert getattr(nemsqnd, name) is getattr(submodule, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        nemsqnd.no_such_name
    namespace = {}
    exec("from nemsqnd import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(nemsqnd.__all__)
    assert all(namespace[name] is getattr(nemsqnd, name) for name in namespace)


def test_readme_library_example_runs(tmp_path):
    """The `python` block of README's "Library use" runs as written on
    this test's package, so the documented library surface cannot rot."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, cwd=tmp_path, env=source_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    theta_ratio, gain = map(float, proc.stdout.splitlines()[0].split())
    assert theta_ratio == pytest.approx(-1e-6, rel=1e-9) and gain > 0


def test_every_name_the_bench_probe_times_resolves():
    """The bench probe skips a timed name that no longer exists, so its
    span goes missing only in a traced bench run; each must still resolve.
    ``TIMED`` is read from the probe's source, not imported."""
    probe = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"
    (timed,) = [ast.literal_eval(node.value)
                for node in ast.parse(probe.read_text(encoding="utf-8")).body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["TIMED"]]
    for module, names in timed.items():
        holder = importlib.import_module(f"nemsqnd.{module}")
        for name in names:
            assert callable(getattr(holder, name, None)), f"{module}.{name}"


def test_conftest_loads_every_package_module():
    """``conftest.MODULES`` is every module of the package, so the set of
    loaded local modules, and with it the pool of constants Hypothesis
    draws from, does not depend on which tests run."""
    from conftest import MODULES

    package = Path(nemsqnd.__file__).parent
    assert sorted(MODULES) == sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert all(f"nemsqnd.{name}" in sys.modules for name in MODULES)


def test_hypothesis_failures_print_a_replayable_blob():
    assert settings.default.print_blob


def test_ci_installs_the_test_extra():
    """CI's pip line installs every package of the `test` extra, pinned
    as the extra pins it.  The extra pins Hypothesis: another version
    draws other examples, and a `@reproduce_failure` blob replays only on
    the version that printed it."""
    root = Path(__file__).resolve().parents[1]
    extra = toml_entries((root / "pyproject.toml").read_text(encoding="utf-8"),
                         "project.optional-dependencies")["test"]
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    (line,) = re.findall(r"^\s*run: python -m pip install (.+)$", workflow, re.M)
    installed = {re.split("[<>=!~]", arg, maxsplit=1)[0]: arg for arg in line.split()}
    assert any(req.startswith("hypothesis==") for req in extra)
    for req in extra:
        name = re.split("[<>=!~]", req, maxsplit=1)[0]
        assert name in installed, req
        if "==" in req:
            assert installed[name] == req


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


# ``python -c EVERY_ARRAY_COMMAND CONF OUT`` runs each array subcommand
# through `nemsqnd.cli.main` into OUT and exits with the largest exit code.
EVERY_ARRAY_COMMAND = """
import sys
from nemsqnd.cli import main

conf, out = sys.argv[1:]
sys.exit(max(main([command, "--config", conf, "--out", out])
             for command in ("current", "entropy", "cat", "classical", "verify")))
"""


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Every artifact is the same byte for byte with one and with two
    OpenBLAS/OpenMP threads; the two runs go one after the other, so no
    more than two BLAS threads ever run."""
    conf = tmp_path / "short.conf"
    conf.write_text("current_points = 64\nentropy_points = 61\nalpha_points = 6\n"
                    "classical_periods = 20\nclassical_samples = 1024\n")
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = {**source_env(), "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", EVERY_ARRAY_COMMAND, str(conf), str(out)],
                              capture_output=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        artifacts.append({p.name: p.read_bytes() for p in out.iterdir()})
    one, two = artifacts
    assert len(one) == 7 and sorted(one) == sorted(two)
    differ = [name for name in one if one[name] != two[name]]
    assert not differ, f"{differ} depend on the BLAS thread count"


def toml_entries(pyproject_text, table):
    """The one-line `key = value` entries of a table of `pyproject.toml`,
    each value (a string or a list of strings) read as a Python literal.

    Read line by line rather than with `tomllib`, which Python 3.10 (still
    allowed by `requires-python`, and run by CI) does not have.  An entry
    written any other way is not returned, so the checks below fail rather
    than pass.
    """
    entries, in_table = {}, False
    for line in pyproject_text.splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == f"[{table}]"
        elif in_table and (m := re.fullmatch(r'([\w.-]+)\s*=\s*(".*"|\[.*\])', line)):
            entries[m[1]] = ast.literal_eval(m[2])
    return entries


def test_console_script_prints_defaults(tmp_path):
    # `sim` is bound to nemsqnd.cli:main ...
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert toml_entries(pyproject.read_text(), "project.scripts")["sim"] == "nemsqnd.cli:main"

    # ... and that entry point, run in a fresh process on the very package
    # this test imported (not an installed copy), prints the full defaults.
    proc = subprocess.run(
        [sys.executable, "-m", "nemsqnd.cli", "defaults"],
        capture_output=True, cwd=tmp_path, env=source_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == default_config_text().encode()
    assert proc.stderr == b""


def source_env():
    """The environment with this test's ``nemsqnd`` first on ``PYTHONPATH``."""
    src = str(Path(nemsqnd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# ``python -c BLOCKED MODULES ARGS`` runs ``python -m nemsqnd.cli ARGS`` in a
# process where importing any of the comma-separated MODULES, or any module
# under one, fails as it would on an install without it, asserts that none of
# them got loaded and exits with the command's exit code.
BLOCKED = """
import importlib.abc, runpy, sys

prefixes = sys.argv.pop(1).split(",")

def blocked(name):
    return any(name == p or name.startswith(p + ".") for p in prefixes)

class Blocker(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if blocked(name):
            raise ImportError(f"No module named {name!r} (blocked)")
        return None

sys.meta_path.insert(0, Blocker())
try:
    runpy.run_module("nemsqnd.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules if blocked(m))
assert not loaded, loaded
sys.exit(code)
"""


def run_blocked(modules, args, cwd):
    return subprocess.run([sys.executable, "-c", BLOCKED, modules, *args],
                          capture_output=True, cwd=cwd, env=source_env())


@pytest.mark.parametrize("command", ["params", "current", "entropy", "cat",
                                     "classical", "verify", "defaults"])
def test_subcommands_run_without_scipy(tmp_path, command):
    """The runtime needs numpy only; scipy is a test-side reference."""
    conf = tmp_path / "tiny.conf"
    conf.write_text("entropy_points = 3\nalpha_points = 2\ncurrent_points = 16\n"
                    "classical_periods = 20\nclassical_samples = 1024\n")
    args = [command, "--config", str(conf), "--out", str(tmp_path / "out")]
    proc = run_blocked("scipy", args, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_classical_loads_no_oracle_module(tmp_path):
    """`sim classical` runs on the circuit and its config alone."""
    conf = tmp_path / "short.conf"
    conf.write_text("classical_periods = 20\nclassical_samples = 1024\n")
    args = ["classical", "--config", str(conf), "--out", str(tmp_path / "out")]
    proc = run_blocked("nemsqnd.verify,nemsqnd.entanglement,nemsqnd.fock", args, tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command,modules", [
    ("defaults", "nemsqnd.circuit,nemsqnd.readout"),
    ("entropy", "nemsqnd.circuit,nemsqnd.readout"),
    ("classical", "nemsqnd.readout"),
    ("cat", "nemsqnd.verify,nemsqnd.circuit,nemsqnd.readout"),
])
def test_subcommands_load_no_unused_domain_module(tmp_path, command, modules):
    """The config is a leaf: a subcommand loads the domain modules it
    calls and no other."""
    conf = tmp_path / "tiny.conf"
    conf.write_text("entropy_points = 3\nalpha_points = 2\n"
                    "classical_periods = 20\nclassical_samples = 1024\n")
    args = [command, "--config", str(conf), "--out", str(tmp_path / "out")]
    proc = run_blocked(modules, args, tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args,code,out,err", [
    (["defaults"], 0, b"L1 = ", b""),
    (["params"], 0, b"effective circuit parameters\n", b""),
    (["current"], 0, b"wrote current.csv (200 samples)\n", b""),
    (["--help"], 0, b"usage: sim", b""),
    (["params", "--config", "range.conf"], 2, b"", b"config error: alpha_points must be in [2, 1000]"),
], ids=["defaults", "params", "current", "help", "config-error"])
def test_scalar_subcommands_start_without_numpy(tmp_path, args, code, out, err):
    """Only the array subcommands import numpy, inside their own bodies, and
    no scalar one loads ``dataclasses``, ``inspect`` or ``json``, which
    cost a fifth of a ``sim defaults`` process."""
    (tmp_path / "range.conf").write_text("alpha_points = 1001\n")
    proc = run_blocked("numpy,dataclasses,inspect,json", args, tmp_path)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.startswith(out), proc.stdout
    assert proc.stderr.startswith(err) if err else proc.stderr == b"", proc.stderr
    if args == ["current"]:
        header, rows = read_csv(tmp_path / "current.csv")
        assert header == ("tau", "I_nb0", "I_nb1", "I_nb2", "I_nb3", "residual")
        assert len(rows) == 200


def test_help_mentions_every_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
