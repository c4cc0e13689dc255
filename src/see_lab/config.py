"""Line-oriented experiment configuration: `[section]` headers, key=value
pairs, `#` comments.  Parsing is strict: unknown sections or keys, duplicate
keys, and type errors are all collected (with line numbers) into a single
ConfigError rather than silently defaulted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .coefficients import (
    DEFAULT_SHEAR_ENTRIES,
    ModelSpec,
    affine_drift,
    build_model,
    diag_affine_noise,
    inverse_mode_amplitudes,
    linear_decay_drift,
    skew_shear_form,
    zero_form,
)
from .coupling import DistanceParams, select_delta
from .dynamics import StepperConfig
from .errors import ConfigError
from .spectral import SpectralBasis, quadratic_basis

_KNOWN_KEYS = {
    "model": {"kind", "c1", "coupling_n", "gamma"},
    "basis": {"m", "spectrum", "scale", "eigenvalues"},
    "drift": {"kind", "rate", "shift", "scale"},
    "bilinear": {"kind", "entries"},
    "noise": {"kind", "s", "sigma0", "c_min", "g_base", "g_slope", "g_lo", "g_hi"},
    "nse": {"kappa", "gamma", "sigma0", "forcing", "coupling_n"},
    "stepper": {"dt", "scheme", "penalty_n", "t"},
    "plan": {"n_paths", "t_grid", "base_seed", "x0", "y0"},
    "distance": {"delta", "n_tilde"},
    "output": {"directory", "formats"},
}

# keys that name a choice with one implemented value
_SINGLE_VALUED = (
    ("basis", "spectrum", "quadratic"),
    ("noise", "kind", "diag_affine"),
    ("output", "formats", "csv"),
)

_DEFAULTS = {
    ("model", "kind"): "generic",
    ("model", "c1"): "0.5",
    ("model", "coupling_n"): "4",
    ("model", "gamma"): "0.0",
    ("basis", "m"): "16",
    ("basis", "spectrum"): "quadratic",
    ("basis", "scale"): "1.0",
    ("drift", "kind"): "linear_decay",
    ("drift", "rate"): "0.3",
    ("bilinear", "kind"): "skew_shear",
    ("noise", "kind"): "diag_affine",
    ("noise", "sigma0"): "0.05",
    ("noise", "g_base"): "1.0",
    ("noise", "g_slope"): "0.0",
    ("noise", "g_lo"): "1.0",
    ("noise", "g_hi"): "1.0",
    ("nse", "kappa"): "2",
    ("nse", "gamma"): "0.25",
    ("nse", "sigma0"): "0.05",
    ("nse", "coupling_n"): "4",
    ("stepper", "dt"): "1e-3",
    ("stepper", "scheme"): "projected",
    ("stepper", "penalty_n"): "1e4",
    ("stepper", "t"): "1.0",
    ("plan", "n_paths"): "8",
    ("plan", "t_grid"): "auto",  # snapped {T/4, T/2, T}
    ("plan", "base_seed"): "12345",
    ("distance", "delta"): "auto",
    ("distance", "n_tilde"): "auto",
    ("output", "directory"): "out",
    ("output", "formats"): "csv",
}


@dataclass
class ExperimentConfig:
    """Parsed and validated configuration; values are raw strings resolved
    through the typed accessors below."""

    values: dict = field(default_factory=dict)  # (section, key) -> (value, lineno)
    source: str = ""

    def get(self, section: str, key: str) -> str:
        if (section, key) in self.values:
            return self.values[(section, key)][0]
        return _DEFAULTS.get((section, key), "")

    def has(self, section: str, key: str) -> bool:
        return (section, key) in self.values

    def config_hash(self) -> str:
        effective = {
            (s, k): self.get(s, k)
            for s, keys in _KNOWN_KEYS.items()
            for k in keys
            if self.get(s, k) != ""
        }
        canon = repr(sorted(effective.items()))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _parse_lines(text: str):
    violations = []
    values = {}
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KNOWN_KEYS:
                violations.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            violations.append(f"line {lineno}: expected key=value, got {line!r}")
            continue
        if section is None:
            violations.append(f"line {lineno}: key outside any known section")
            continue
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS[section]:
            violations.append(f"line {lineno}: unknown key {key!r} in [{section}]")
            continue
        if (section, key) in values:
            first = values[(section, key)][1]
            violations.append(
                f"line {lineno}: duplicate key {key!r} in [{section}]"
                f" (first set at line {first})"
            )
            continue
        values[(section, key)] = (val, lineno)
    return values, violations


def _float(cfg, section, key, violations):
    raw = cfg.get(section, key)
    try:
        return float(raw)
    except ValueError:
        line = cfg.values.get((section, key), ("", "?"))[1]
        violations.append(f"line {line}: [{section}] {key} must be a number, got {raw!r}")
        return 0.0


def _int(cfg, section, key, violations):
    raw = cfg.get(section, key)
    try:
        return int(raw)
    except ValueError:
        line = cfg.values.get((section, key), ("", "?"))[1]
        violations.append(f"line {line}: [{section}] {key} must be an integer, got {raw!r}")
        return 0


def _float_list(cfg, section, key, violations):
    raw = cfg.get(section, key)
    if not raw:
        return None
    try:
        return np.array([float(x) for x in raw.split(",") if x.strip() != ""])
    except ValueError:
        line = cfg.values.get((section, key), ("", "?"))[1]
        violations.append(f"line {line}: [{section}] {key} must be comma-separated numbers")
        return None


def _colon_items(raw: str, n_idx: int, dim: int) -> list:
    """Items `i_1:...:i_n:c` of a comma-separated list, as (i_1 - 1, ...,
    i_n - 1, c): n 1-based indices in 1..dim, then a number.  Raises
    ValueError naming the first item that is not of that form."""
    out = []
    for item in raw.split(","):
        *idx, c = item.split(":")
        try:
            zero = [int(i) - 1 for i in idx]
            if len(zero) != n_idx or not all(0 <= i < dim for i in zero):
                raise ValueError
            out.append((*zero, float(c)))
        except ValueError:
            raise ValueError(item.strip()) from None
    return out


def _check_colon_items(cfg, section, key, n_idx, dim, violations) -> list:
    """The parsed items of a colon list, or [] after adding a violation."""
    raw = cfg.get(section, key)
    if not raw:
        return []
    try:
        return _colon_items(raw, n_idx, dim)
    except ValueError as exc:
        form = ":".join(["i"] * n_idx)
        violations.append(
            f"line {cfg.values[(section, key)][1]}: [{section}] {key} items must be "
            f"{form}:c with each i in 1..{dim} and c a number, got {str(exc)!r}"
        )
        return []


def resolve_t_grid(cfg) -> np.ndarray:
    """The plan's time grid; `auto` snaps {T/4, T/2, T} onto the step grid."""
    raw = cfg.get("plan", "t_grid")
    dt = float(cfg.get("stepper", "dt"))
    t_final = float(cfg.get("stepper", "t"))
    if raw == "auto":
        steps = sorted({max(1, round(t_final * f / dt)) for f in (0.25, 0.5, 1.0)})
        return np.array([s * dt for s in steps])
    return np.array([float(x) for x in raw.split(",") if x.strip() != ""])


def parse_config(path) -> ExperimentConfig:
    """Read and validate a config file; raises ConfigError listing every
    violation with its line number."""
    with open(path) as fh:
        text = fh.read()
    return parse_config_text(text, source=str(path))


def parse_config_text(text: str, source: str = "<memory>") -> ExperimentConfig:
    values, violations = _parse_lines(text)
    cfg = ExperimentConfig(values=values, source=source)
    _validate(cfg, violations)
    if violations:
        raise ConfigError(violations)
    return cfg


def _validate(cfg: ExperimentConfig, violations: list):
    kind = cfg.get("model", "kind")
    if kind not in ("generic", "nse"):
        violations.append(f"[model] kind must be generic or nse, got {kind!r}")
    m = _int(cfg, "basis", "m", violations)
    eig = _float_list(cfg, "basis", "eigenvalues", violations)
    if eig is not None:
        m = eig.size
    n = _int(cfg, "model", "coupling_n", violations)
    if kind == "generic" and not n < m:
        violations.append("coupling_n must be < basis dim")
    dt = _float(cfg, "stepper", "dt", violations)
    t_final = _float(cfg, "stepper", "t", violations)
    if dt <= 0.0:
        violations.append("[stepper] dt must be positive")
    if cfg.get("plan", "t_grid") != "auto":
        grid = _float_list(cfg, "plan", "t_grid", violations)
        if grid is not None and dt > 0.0:
            if np.any(grid < 0.0) or np.any(grid > t_final + 1e-12):
                violations.append("[plan] t_grid times must lie in [0, T]")
            steps = np.round(grid / dt)
            if np.any(np.abs(steps * dt - grid) > 1e-9):
                violations.append("[plan] dt must divide every t_grid time within 1e-9")
    if kind == "generic":
        for i, j, k, _ in _check_colon_items(cfg, "bilinear", "entries", 3, m, violations):
            if j == k:
                violations.append(
                    f"line {cfg.values[('bilinear', 'entries')][1]}: [bilinear] entries "
                    f"item {i + 1}:{j + 1}:{k + 1} has j == k; the form is skew in (j, k)"
                )
        for key in ("rate", "shift", "scale"):
            vals = _float_list(cfg, "drift", key, violations)
            if vals is not None and vals.size not in (1, m):
                violations.append(
                    f"line {cfg.values[('drift', key)][1]}: [drift] {key} needs 1 or "
                    f"{m} numbers, got {vals.size}"
                )
        _check_noise(cfg, m, n, violations)
    elif kind == "nse":
        from .nse import build_fourier_grid

        kappa = _int(cfg, "nse", "kappa", violations)
        if kappa >= 1:
            dim = build_fourier_grid(kappa).dim
            _check_colon_items(cfg, "nse", "forcing", 1, dim, violations)
    for section, key, only in _SINGLE_VALUED:
        raw = cfg.get(section, key)
        if raw != only:
            line = cfg.values[(section, key)][1]
            violations.append(f"line {line}: [{section}] {key} must be {only}, got {raw!r}")
    scheme = cfg.get("stepper", "scheme")
    if scheme not in ("projected", "penalized"):
        violations.append(f"[stepper] scheme must be projected or penalized, got {scheme!r}")
    delta = cfg.get("distance", "delta")
    if delta != "auto":
        try:
            d = float(delta)
            if not 0.0 < d < 1.0:
                violations.append("[distance] delta must lie in (0,1) or be auto")
        except ValueError:
            violations.append(f"[distance] delta must be a number or auto, got {delta!r}")


def _line(cfg, section, *keys) -> int:
    """The last line among the keys set in `section`."""
    return max(cfg.values.get((section, k), ("", 0))[1] for k in keys)


def _check_noise(cfg, m, n, violations):
    """The [noise] values that diag_affine_noise and build_model reject."""
    n_before = len(violations)
    amps = _float_list(cfg, "noise", "s", violations)
    sigma0 = _float(cfg, "noise", "sigma0", violations)
    g_lo = _float(cfg, "noise", "g_lo", violations)
    g_hi = _float(cfg, "noise", "g_hi", violations)
    c_min = _float(cfg, "noise", "c_min", violations) if cfg.has("noise", "c_min") else 0.0
    if len(violations) > n_before or m < 1:
        return  # a value did not parse, or the basis is empty (coupling_n < m fails)
    amp_key = "s" if amps is not None else "sigma0"
    if amps is None:
        amps = inverse_mode_amplitudes(m, sigma0)
    elif amps.size != m:
        violations.append(
            f"line {_line(cfg, 'noise', 's')}: [noise] s needs {m} numbers, "
            f"one per basis mode, got {amps.size}"
        )
        return
    if np.any(amps < 0.0):
        violations.append(
            f"line {_line(cfg, 'noise', amp_key)}: [noise] {amp_key} gives negative "
            f"noise amplitudes (min {float(amps.min())!r})"
        )
    if not 0.0 < g_lo <= g_hi:
        keys = ("g_lo",) if g_lo <= 0.0 else ("g_lo", "g_hi")
        violations.append(
            f"line {_line(cfg, 'noise', *keys)}: [noise] need 0 < g_lo <= g_hi, "
            f"got g_lo = {g_lo!r}, g_hi = {g_hi!r}"
        )
    if c_min > 0.0 and np.any(amps[:n] < c_min):
        violations.append(
            f"line {_line(cfg, 'noise', amp_key, 'c_min')}: [noise] amplitudes on the "
            f"coupled modes fall below c_min = {c_min!r} (min {float(amps[:n].min())!r})"
        )


# ---------------------------------------------------------------------------
# builders from a validated config


def build_basis_from_config(cfg: ExperimentConfig) -> SpectralBasis:
    eig = _float_list(cfg, "basis", "eigenvalues", [])
    if eig is not None:
        return SpectralBasis(eig)
    m = int(cfg.get("basis", "m"))
    scale = float(cfg.get("basis", "scale"))
    return quadratic_basis(m, scale)


def build_model_from_config(cfg: ExperimentConfig):
    """ModelSpec for generic configs, (NseModel, ModelSpec) for nse kind."""
    if cfg.get("model", "kind") == "nse":
        from .nse import build_fourier_grid, build_nse_model

        m_forcing = cfg.get("nse", "forcing")
        forcing = None
        kappa = int(cfg.get("nse", "kappa"))
        n_cfg = int(cfg.get("nse", "coupling_n")) if cfg.has("nse", "coupling_n") else None
        c1_cfg = float(cfg.get("model", "c1")) if cfg.has("model", "c1") else None
        if m_forcing:
            forcing = np.zeros(build_fourier_grid(kappa).dim)
            for idx, val in _colon_items(m_forcing, 1, forcing.size):
                forcing[idx] = val
        nse = build_nse_model(
            kappa=kappa,
            gamma=float(cfg.get("nse", "gamma")),
            sigma0=float(cfg.get("nse", "sigma0")),
            forcing=forcing,
            coupling_n=n_cfg,
            lipschitz_c1=c1_cfg,
        )
        return nse, nse.spec

    basis = build_basis_from_config(cfg)
    m = basis.dim
    n = int(cfg.get("model", "coupling_n"))

    drift_kind = cfg.get("drift", "kind")
    if drift_kind == "linear_decay":
        rate = _float_list(cfg, "drift", "rate", []) if "," in cfg.get("drift", "rate") else float(cfg.get("drift", "rate"))
        drift = linear_decay_drift(rate)
    elif drift_kind == "affine":
        shift = _float_list(cfg, "drift", "shift", [])
        shift = shift if shift is not None else np.zeros(m)
        scale_raw = cfg.get("drift", "scale") or "0.0"
        scale = np.array([float(x) for x in scale_raw.split(",")]) if "," in scale_raw else float(scale_raw)
        drift = affine_drift(shift, scale)
    else:
        raise ConfigError([f"[drift] kind {drift_kind!r} not buildable from config"])

    bl_kind = cfg.get("bilinear", "kind")
    if bl_kind == "zero":
        bilinear = zero_form()
    elif bl_kind == "skew_shear":
        raw = cfg.get("bilinear", "entries")
        entries = _colon_items(raw, 3, m) if raw else DEFAULT_SHEAR_ENTRIES
        bilinear = skew_shear_form(entries, m)
    else:
        raise ConfigError([f"[bilinear] kind {bl_kind!r} needs an nse model"])

    s = _float_list(cfg, "noise", "s", [])
    if s is None:
        s = inverse_mode_amplitudes(m, float(cfg.get("noise", "sigma0")))
    c_min = float(cfg.get("noise", "c_min")) if cfg.has("noise", "c_min") else float(s[:n].min())
    noise = diag_affine_noise(
        s,
        c_min=c_min,
        g_base=float(cfg.get("noise", "g_base")),
        g_slope=float(cfg.get("noise", "g_slope")),
        g_lo=float(cfg.get("noise", "g_lo")),
        g_hi=float(cfg.get("noise", "g_hi")),
    )
    return build_model(
        basis=basis,
        drift=drift,
        bilinear=bilinear,
        noise=noise,
        lipschitz_c1=float(cfg.get("model", "c1")),
        coupling_n=n,
        damping_gamma=float(cfg.get("model", "gamma")),
    )


def stepper_from_config(cfg: ExperimentConfig) -> StepperConfig:
    return StepperConfig(
        dt=float(cfg.get("stepper", "dt")),
        scheme=cfg.get("stepper", "scheme"),
        penalty_n=float(cfg.get("stepper", "penalty_n")),
    )


def plan_from_config(cfg: ExperimentConfig, seed=None, n_paths=None):
    from .ergodicity import MonteCarloPlan

    return MonteCarloPlan(
        n_paths=n_paths if n_paths is not None else int(cfg.get("plan", "n_paths")),
        t_grid=resolve_t_grid(cfg),
        base_seed=seed if seed is not None else int(cfg.get("plan", "base_seed")),
        cfg=stepper_from_config(cfg),
    )


def distance_from_config(cfg: ExperimentConfig, model: ModelSpec) -> DistanceParams:
    delta_raw = cfg.get("distance", "delta")
    delta = select_delta(model)[0] if delta_raw == "auto" else float(delta_raw)
    nt_raw = cfg.get("distance", "n_tilde")
    n_tilde = 1.0 if nt_raw == "auto" else float(nt_raw)
    return DistanceParams(n_tilde=n_tilde, delta=delta)


def start_vector(cfg: ExperimentConfig, model: ModelSpec, key: str = "x0"):
    vec = _float_list(cfg, "plan", key, [])
    if vec is None:
        return np.zeros(model.dim)
    if vec.size != model.dim:
        raise ConfigError([f"[plan] {key} needs {model.dim} coefficients"])
    return vec
