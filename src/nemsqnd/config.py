"""Flat key-value run configuration shared by every CLI subcommand.

Format: UTF-8 text, one ``key = value`` per line, ``#`` starts a
comment, blank lines ignored.  Unknown and duplicate keys are rejected.
Units are SI at this boundary (henry, farad, meter, kilogram, rad/s);
every frequency key, including the mechanical ``nu``, is angular.

The defaults describe a desk-scale device: two matched 6e9 rad/s
resonators whose coupling capacitor is ten times their own capacitance,
a 10 nm gap, and a mechanical mass tuned so the zero-point spread is
1e-3 of the gap (making the phonon-conditioned coupling a millionth of
the bare one).  The drive keeps the steady amplitude of resonator 2 at
5 and its decay a hundred times the exchange rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .circuit import (
    DRIVE_PERIOD_CAP,
    EPS0,
    HBAR,
    EffectiveParams,
    PhysicalCircuitParams,
    effective_params,
)
from .entanglement import ALPHA_CAP, ORACLE_DIM_CAP, TERM_CAP, CoherentTriple
from .errors import ConfigError
from .readout import ReadoutParams


def _desk_defaults() -> dict[str, float]:
    d = 1e-8
    area = 1e-10
    nu = 2.0 * math.pi * 1e9
    c1 = EPS0 * area / d / 10.0
    omega = 6e9
    l1 = 1.0 / (omega**2 * c1)
    m = HBAR / (d**2 * nu * 1e-6)  # pins |theta/theta0| to 1e-6
    circuit = {"L1": l1, "L2": l1, "C1": c1, "C2": c1,
               "d": d, "A": area, "m": m, "nu": nu}
    kappa2 = 100.0 * effective_params(PhysicalCircuitParams(**circuit)).theta0
    return {**circuit, "kappa1": 1e7, "kappa2": kappa2, "F_im": 2.5 * kappa2}


_DESK = _desk_defaults()


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _positive(default: float):
    """A field whose value must be strictly positive."""
    return field(default=default, metadata={"positive": True})


def _within(default: int, low: int, high: int):
    """An integer field bounded to [low, high]; ``high`` caps what a run allocates."""
    return field(default=default, metadata={"range": (low, high)})


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated configuration; one field per config key.

    The field list is the config schema: each field's default is the
    key's default, the default's type picks the parser, bool and int
    fields must hold a value of exactly that type, float fields a finite
    int or float that is not a bool, fields made with ``_positive`` must
    be strictly positive and those made with ``_within`` must lie in
    their range.
    """

    # circuit, SI units
    L1: float = _positive(_DESK["L1"])
    L2: float = _positive(_DESK["L2"])
    C1: float = _positive(_DESK["C1"])
    C2: float = _positive(_DESK["C2"])
    d: float = _positive(_DESK["d"])
    A: float = _positive(_DESK["A"])
    m: float = _positive(_DESK["m"])
    nu: float = _positive(_DESK["nu"])
    n_b: float = 0.0
    # readout drive and decay rates (rad/s); F as a re/im pair
    kappa1: float = _positive(_DESK["kappa1"])
    kappa2: float = _positive(_DESK["kappa2"])
    F_re: float = 0.0
    F_im: float = _DESK["F_im"]
    # coherent amplitudes as re/im pairs
    alpha_re: float = 2.0
    alpha_im: float = 0.0
    beta_re: float = 2.0
    beta_im: float = 0.0
    gamma_re: float = 2.0
    gamma_im: float = 0.0
    n_terms: int = _within(30, 1, TERM_CAP)
    # output grids
    entropy_points: int = _within(201, 2, 10_000)
    theta_t_max: float = _positive(2.0 * math.pi)
    alpha_max: float = 3.0
    alpha_points: int = _within(21, 2, 1_000)
    current_points: int = _within(200, 2, 100_000)
    current_tau_max: float = _positive(10.0)
    # classical validation run
    classical_toy: bool = True
    classical_x0_over_d: float = _positive(math.sqrt(2.0) * 1e-3)
    classical_nu_factor: float = _positive(20.0)
    classical_periods: int = _within(250, 1, 100_000)
    # at least 1024 samples for the spectral fit
    classical_samples: int = _within(8192, 1024, 2**18)
    classical_rtol: float = _positive(1e-10)
    # brute-force oracle sizing
    oracle_dim: int = _within(30, 2, ORACLE_DIM_CAP)
    # tolerances (every one strictly positive)
    tol_current_ode: float = _positive(1e-8)
    tol_elimination: float = _positive(1e-2)
    tol_entropy_oracle: float = _positive(1e-6)
    tol_cat_fidelity: float = _positive(1e-10)
    tol_separability: float = _positive(1e-8)
    tol_classical_peak: float = _positive(2e-2)
    resonance_rtol: float = _positive(1e-9)
    # verification knob: scales theta on the analytic side of the
    # oracle comparison; anything but 1.0 must make `verify` fail
    verify_theta_scale: float = _positive(1.0)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is bool and not isinstance(value, bool):
                raise ConfigError(f"{f.name} must be a boolean")
            if type(f.default) is int and (not isinstance(value, int)
                                           or isinstance(value, bool)):
                raise ConfigError(f"{f.name} must be an integer")
            if type(f.default) is float:
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ConfigError(f"{f.name} must be a number")
                if not math.isfinite(value):
                    raise ConfigError(f"{f.name} must be finite")
        for f in fields(self):
            if f.metadata.get("positive") and not getattr(self, f.name) > 0:
                raise ConfigError(f"{f.name} must be positive")
            low, high = f.metadata.get("range", (None, None))
            if low is not None and not low <= getattr(self, f.name) <= high:
                raise ConfigError(f"{f.name} must be in [{low}, {high}]")
        if self.n_b < 0:
            raise ConfigError("n_b must be nonnegative")
        if not 0 <= self.alpha_max <= ALPHA_CAP:
            raise ConfigError(f"alpha_max must be in [0, {ALPHA_CAP}]")
        # the classical run keeps one state per drive period (period pi/nu)
        if 2 * self.classical_periods * self.classical_nu_factor > DRIVE_PERIOD_CAP:
            raise ConfigError(
                f"classical_periods * classical_nu_factor must be <= {DRIVE_PERIOD_CAP // 2}"
            )
        if self.classical_x0_over_d >= 1.0:
            raise ConfigError("classical_x0_over_d must stay below 1 (gap contact)")

    # -- assembled domain objects ------------------------------------

    def physical(self) -> PhysicalCircuitParams:
        return PhysicalCircuitParams(
            L1=self.L1, L2=self.L2, C1=self.C1, C2=self.C2,
            d=self.d, A=self.A, m=self.m, nu=self.nu,
        )

    def effective(self) -> EffectiveParams:
        return effective_params(
            self.physical(), n_b=self.n_b, resonance_rtol=self.resonance_rtol
        )

    def readout(self, strict: bool = False) -> ReadoutParams:
        eff = self.effective()
        return ReadoutParams(
            F=complex(self.F_re, self.F_im),
            kappa1=self.kappa1, kappa2=self.kappa2,
            theta0=eff.theta0, theta=eff.theta,
            omega_tilde=eff.omega_tilde1, L=self.L1, strict=strict,
        )

    def triple(
        self,
        alpha: complex | None = None,
        beta: complex | None = None,
        gamma: complex | None = None,
    ) -> CoherentTriple:
        """Coherent amplitudes from the config, with optional overrides."""
        return CoherentTriple(
            alpha=complex(self.alpha_re, self.alpha_im) if alpha is None else alpha,
            beta=complex(self.beta_re, self.beta_im) if beta is None else beta,
            gamma=complex(self.gamma_re, self.gamma_im) if gamma is None else gamma,
        )


#: key -> (caster, default), in field order; derived from RunConfig
KEYS: dict[str, tuple] = {
    f.name: ({bool: _bool, int: int, float: float}[type(f.default)], f.default)
    for f in fields(RunConfig)
}


def parse_config_text(text: str) -> RunConfig:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        caster = KEYS[key][0]
        try:
            values[key] = caster(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
        if caster is float and not math.isfinite(values[key]):
            raise ConfigError(f"line {lineno}: {key} must be finite")
    return RunConfig(**values)


def load_config(path: str | Path | None) -> RunConfig:
    """Read a config file; with ``path=None`` return pure defaults."""
    if path is None:
        return parse_config_text("")
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid UTF-8: {exc}") from None
    return parse_config_text(text)


def default_config_text() -> str:
    """The effective defaults, serialized in config-file syntax."""
    lines = []
    for name, (_, default) in KEYS.items():
        if isinstance(default, bool):
            rendered = "true" if default else "false"
        elif isinstance(default, int):
            rendered = str(default)
        else:
            rendered = repr(float(default))
        lines.append(f"{name} = {rendered}")
    return "\n".join(lines) + "\n"
