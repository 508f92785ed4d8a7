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
5 and its decay a hundred times the exchange rate.  The defaults are
written out as the literals that derivation gives, so reading a config
imports no domain module; a test re-derives each one through
``circuit.effective_params`` and compares them bit for bit.
"""

from __future__ import annotations

import math
from collections import namedtuple
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError

if TYPE_CHECKING:
    from .circuit import ClassicalCircuitConfig, EffectiveParams, PhysicalCircuitParams
    from .entanglement import CoherentTriple
    from .readout import ReadoutParams

# Every input cap, defined here so that reading a config needs no numpy
# and no domain module; ``circuit``, ``entanglement`` and ``readout``
# import theirs.

#: cap on |alpha|; keeps the automatic term counts in the tens
ALPHA_CAP = 6.0

#: cap on ``current_tau_max``, a hundred times the default; the curves are
#: constant to double precision past tau ~ 37, while the ODE steps keep growing
CURRENT_TAU_CAP = 1e3

#: most drive periods one classical run may span; it keeps one state per period
DRIVE_PERIOD_CAP = 2**20

#: the readout's adiabatic elimination is trusted while theta0/kappa2 and
#: |theta|/kappa2 stay below this; ``sim --strict`` refuses the rest
REGIME_LIMIT = 0.1

#: ``RunConfig.effective`` refuses omega_tilde1 and omega_tilde2 further apart
#: than this, relative: the exchange model needs the two on resonance
RESONANCE_RTOL = 1e-9

#: the classical run's spectral peak of Q1 lies within its normal-mode
#: spread, 0.5%, of ``classical_periods`` cycles, and must lie at least
#: ALIAS_MARGIN frequency bins from each of its mirrors, at the Nyquist
#: bin and about DC: the three-bin fit reads 1.5 bins past it, and the
#: sigma = N/6 Gaussian window makes a line a Gaussian of 3/pi bins,
#: below 1e-13 in 8 of them
MODE_SPREAD, ALIAS_MARGIN = 1.005, 1.5 + 8 * 3 / math.pi


def toy_weak_coupling_circuit(nu: float) -> PhysicalCircuitParams:
    """Unit-scale circuit with a coupling capacitor 50x the resonator C.

    The classical averaging run uses it in place of the desk circuit: with
    the coupling this weak the two normal modes sit within 0.5% of the
    effective single-resonator frequency, so a spectral peak of either
    charge coordinate lands on it well inside the 2% gate no matter how
    the modes are excited.  The desk circuit's normal modes are split by
    more than that gate.  Dimensionless units throughout (the ODEs are
    unit-agnostic).
    """
    from .circuit import PhysicalCircuitParams

    return PhysicalCircuitParams(
        L1=1.0, L2=1.0, C1=1.0, C2=1.0, d=1.0, A=50.0, m=1.0, nu=nu,
        eps0=1.0,
    )


#: rule of a key whose value must be strictly positive; a (low, high) pair
#: bounds an integer key to [low, high], ``high`` capping what a run allocates
POSITIVE = "positive"

#: The config schema, key -> (default, rule), in config-file order.  The
#: default's type parses the key: an int key must hold an int and a float
#: key a finite int or float, neither a bool.  The rule is ``POSITIVE``, a
#: (low, high) range or None.
SCHEMA: dict[str, tuple[int | float, str | tuple[int, int] | None]] = {
    # circuit, SI units; the desk values of the module docstring
    "L1": (3.1372474093694975e-06, POSITIVE),
    "L2": (3.1372474093694975e-06, POSITIVE),
    "C1": (8.8541878128e-15, POSITIVE),
    "C2": (8.8541878128e-15, POSITIVE),
    "d": (1e-08, POSITIVE),
    "A": (1e-10, POSITIVE),
    "m": (1.6784031752095163e-22, POSITIVE),
    "nu": (6283185307.179586, POSITIVE),
    "n_b": (0.0, None),
    # readout drive and decay rates (rad/s); F as a re/im pair
    "kappa1": (10000000.0, POSITIVE),
    "kappa2": (14638501094.227997, POSITIVE),
    "F_re": (0.0, None),
    "F_im": (36596252735.56999, None),
    # coherent amplitudes as re/im pairs
    "alpha_re": (2.0, None),
    "alpha_im": (0.0, None),
    "beta_re": (2.0, None),
    "beta_im": (0.0, None),
    "gamma_re": (2.0, None),
    "gamma_im": (0.0, None),
    # output grids
    "entropy_points": (201, (2, 10_000)),
    "theta_t_max": (2.0 * math.pi, POSITIVE),
    "alpha_max": (3.0, None),
    "alpha_points": (21, (2, 1_000)),
    "current_points": (200, (2, 100_000)),
    "current_tau_max": (10.0, POSITIVE),
    # classical validation run (on ``toy_weak_coupling_circuit``)
    "classical_x0_over_d": (math.sqrt(2.0) * 1e-3, POSITIVE),
    "classical_nu_factor": (20.0, POSITIVE),
    "classical_periods": (250, (1, 100_000)),
    # at least 1024 samples for the spectral fit
    "classical_samples": (8192, (1024, 2**18)),
    # tolerances of the two checks that judge what `sim current` and `sim
    # classical` write (every one strictly positive); `verify` derives the
    # gates of its other four checks
    "tol_current_ode": (1e-8, POSITIVE),
    "tol_classical_peak": (2e-2, POSITIVE),
    # verification knob: scales theta on the analytic side of the
    # oracle comparison; anything but 1.0 must make `verify` fail
    "verify_theta_scale": (1.0, POSITIVE),
}

#: key -> default, in schema order; the default's type parses the key
KEYS: dict[str, int | float] = {key: default for key, (default, _) in SCHEMA.items()}


def checked_make(cls, iterable):
    """``_make`` of a record that validates in ``__new__``: namedtuple's
    own, which ``_replace`` calls too, builds the tuple without it.

    The package's records are NamedTuples because a frozen dataclass
    loads ``dataclasses`` and ``inspect`` at every ``sim`` start-up.
    """
    return cls(*iterable)


class RunConfig(namedtuple("RunConfig", KEYS, defaults=KEYS.values())):
    """Parsed and validated configuration; one field per ``SCHEMA`` key.

    A named tuple whose fields, defaults and checks are the ``SCHEMA``
    rows; the constructor, ``_make`` and ``_replace`` refuse a value of
    the wrong type or outside its rule, and the cross-key limits below.
    """

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for (key, (default, _)), value in zip(SCHEMA.items(), self):
            if type(default) is int and (not isinstance(value, int)
                                         or isinstance(value, bool)):
                raise ConfigError(f"{key} must be an integer")
            if type(default) is float:
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ConfigError(f"{key} must be a number")
                if not math.isfinite(value):
                    raise ConfigError(f"{key} must be finite")
        for (key, (_, rule)), value in zip(SCHEMA.items(), self):
            if rule == POSITIVE and not value > 0:
                raise ConfigError(f"{key} must be positive")
            if type(rule) is tuple and not rule[0] <= value <= rule[1]:
                raise ConfigError(f"{key} must be in [{rule[0]}, {rule[1]}]")
        if self.n_b < 0:
            raise ConfigError("n_b must be nonnegative")
        if not 0 <= self.alpha_max <= ALPHA_CAP:
            raise ConfigError(f"alpha_max must be in [0, {ALPHA_CAP}]")
        if self.current_tau_max > CURRENT_TAU_CAP:
            raise ConfigError(f"current_tau_max must be <= {CURRENT_TAU_CAP}")
        # the classical run keeps one state per drive period (period pi/nu)
        if 2 * self.classical_periods * self.classical_nu_factor > DRIVE_PERIOD_CAP:
            raise ConfigError(
                f"classical_periods * classical_nu_factor must be <= {DRIVE_PERIOD_CAP // 2}"
            )
        # bins of the peak; the samples span classical_samples - 1 intervals
        bins = self.classical_periods / (1 - 1 / self.classical_samples)
        peak = MODE_SPREAD * bins
        if self.classical_samples - 2 * peak < ALIAS_MARGIN:
            raise ConfigError(
                f"classical_samples must be at least {math.ceil(2 * peak + ALIAS_MARGIN)} for "
                f"{self.classical_periods} classical_periods, or the Q1 peak aliases at Nyquist")
        # its mirror about DC lies 2 * peak bins away, nearest at the lowest peak
        if 2 * bins < MODE_SPREAD * ALIAS_MARGIN:
            raise ConfigError(
                f"classical_periods must be at least {math.ceil(MODE_SPREAD * ALIAS_MARGIN / 2)}, "
                "or the Q1 peak's mirror about DC reaches the fit")
        if self.classical_x0_over_d >= 1.0:
            raise ConfigError("classical_x0_over_d must stay below 1 (gap contact)")
        return self

    # -- assembled domain objects ------------------------------------

    def physical(self) -> PhysicalCircuitParams:
        from .circuit import PhysicalCircuitParams

        return PhysicalCircuitParams(
            L1=self.L1, L2=self.L2, C1=self.C1, C2=self.C2,
            d=self.d, A=self.A, m=self.m, nu=self.nu,
        )

    def effective(self) -> EffectiveParams:
        from .circuit import effective_params

        return effective_params(self.physical(), n_b=self.n_b, resonance_rtol=RESONANCE_RTOL)

    def readout(self) -> ReadoutParams:
        from .readout import ReadoutParams

        eff = self.effective()
        return ReadoutParams(
            F=complex(self.F_re, self.F_im),
            kappa1=self.kappa1, kappa2=self.kappa2,
            theta0=eff.theta0, theta=eff.theta,
            omega_tilde=eff.omega_tilde1, L=self.L1,
        )

    def triple(
        self,
        alpha: complex | None = None,
        beta: complex | None = None,
        gamma: complex | None = None,
    ) -> CoherentTriple:
        """Coherent amplitudes from the config, with optional overrides."""
        from .entanglement import CoherentTriple

        return CoherentTriple(
            alpha=complex(self.alpha_re, self.alpha_im) if alpha is None else alpha,
            beta=complex(self.beta_re, self.beta_im) if beta is None else beta,
            gamma=complex(self.gamma_re, self.gamma_im) if gamma is None else gamma,
        )

    def classical(self) -> ClassicalCircuitConfig:
        """The averaging-validation run on ``toy_weak_coupling_circuit``.

        The plate is driven at ``classical_nu_factor`` times the effective
        resonator frequency for ``classical_periods`` resonator periods.
        Initial charges are equal on both resonators so a single normal
        mode dominates the spectrum.
        """
        from .circuit import ClassicalCircuitConfig, effective_params

        # omega_tilde1 does not depend on the mechanical frequency
        omega = effective_params(toy_weak_coupling_circuit(nu=1.0)).omega_tilde1
        params = toy_weak_coupling_circuit(nu=self.classical_nu_factor * omega)
        return ClassicalCircuitConfig(
            params=params,
            x0=self.classical_x0_over_d * params.d,
            q1=params.C1, q2=params.C1,
            t_span=(0.0, self.classical_periods * (2.0 * math.pi / omega)),
            n_samples=self.classical_samples,
        )


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
        caster = type(KEYS[key])
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
        # utf-8-sig drops a leading byte-order mark, which some editors write
        text = p.read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid UTF-8: {exc}") from None
    return parse_config_text(text)


def default_config_text() -> str:
    """The effective defaults, serialized in config-file syntax."""
    return "".join(f"{key} = {default!r}\n" for key, default in KEYS.items())
