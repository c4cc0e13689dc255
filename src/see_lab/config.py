"""Line-oriented experiment configuration: `[section]` headers, key=value
pairs, `#` comments.  Parsing is strict: unknown sections or keys, duplicate
keys, values that do not parse and values that do not fit together are all
collected (with line numbers) into a single ConfigError rather than silently
defaulted.  Each value is parsed once, by its key's parser in `_KEYS`.
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


def _parser(what: str, convert):
    """A key's parser: `convert(raw)`, or a ValueError naming what it expects."""

    def parse(raw: str):
        try:
            return convert(raw)
        except ValueError:
            raise ValueError(what) from None

    return parse


def _checked(convert, ok):
    def check(raw: str):
        value = convert(raw)
        if not ok(value):
            raise ValueError(raw)
        return value

    return check


def positive_int(raw: str) -> int:
    """An integer >= 1 (also the type of the `--paths` flag)."""
    return _checked(int, lambda n: n >= 1)(raw)


def _numbers(raw: str) -> np.ndarray:
    return np.array([float(x) for x in raw.split(",") if x.strip() != ""])


def _choice(*options: str):
    return _parser(" or ".join(options), _checked(str, lambda v: v in options))


def _or_auto(what: str, convert):
    return _parser(f"{what} or auto", lambda raw: raw if raw == "auto" else convert(raw))


_NUMBER = _parser("a number", float)
_NONNEGATIVE = _parser("a nonnegative number", _checked(float, lambda v: v >= 0.0))
_POSITIVE = _parser("a positive number", _checked(float, lambda v: v > 0.0))
_INTEGER = _parser("an integer", int)
_NONNEGATIVE_INT = _parser("a nonnegative integer", _checked(int, lambda n: n >= 0))
_POSITIVE_INT = _parser("a positive integer", positive_int)
_NUMBERS = _parser("comma-separated numbers", _numbers)
# one number, or one per mode when the value holds a comma
_NUMBER_OR_LIST = _parser(
    "a number or comma-separated numbers", lambda raw: _numbers(raw) if "," in raw else float(raw)
)
_TEXT = str  # the colon lists are parsed in _validate, against the dimension


def _eigenvalues_ok(lam) -> bool:
    return bool(np.all(np.isfinite(lam)) and np.all(lam > 0.0) and np.all(np.diff(lam) >= 0.0))


# every known key of every section: (default, parser); the default "" marks
# an optional key, whose value is None while it is unset or empty
_KEYS = {
    "model": {"kind": ("generic", _choice("generic", "nse")), "c1": ("0.5", _NONNEGATIVE),
              "coupling_n": ("4", _NONNEGATIVE_INT), "gamma": ("0.0", _NONNEGATIVE)},
    "basis": {"m": ("16", _INTEGER), "spectrum": ("quadratic", _choice("quadratic")),
              "scale": ("1.0", _POSITIVE),
              "eigenvalues": ("", _parser("positive nondecreasing comma-separated numbers",
                                          _checked(_numbers, _eigenvalues_ok)))},
    "drift": {"kind": ("linear_decay", _choice("linear_decay", "affine")),
              "rate": ("0.3", _NUMBER_OR_LIST), "shift": ("", _NUMBERS),
              "scale": ("", _NUMBER_OR_LIST)},
    "bilinear": {"kind": ("skew_shear", _choice("skew_shear", "zero")), "entries": ("", _TEXT)},
    "noise": {"kind": ("diag_affine", _choice("diag_affine")), "s": ("", _NUMBERS),
              "sigma0": ("0.05", _NUMBER), "c_min": ("", _NUMBER), "g_base": ("1.0", _NUMBER),
              "g_slope": ("0.0", _NUMBER), "g_lo": ("1.0", _NUMBER), "g_hi": ("1.0", _NUMBER)},
    "nse": {"kappa": ("2", _POSITIVE_INT), "gamma": ("0.25", _NONNEGATIVE),
            "sigma0": ("0.05", _NUMBER), "forcing": ("", _TEXT),
            "coupling_n": ("4", _NONNEGATIVE_INT)},
    "stepper": {"dt": ("1e-3", _POSITIVE),
                "scheme": ("projected", _choice("projected", "penalized")),
                "penalty_n": ("1e4", _POSITIVE), "t": ("1.0", _NONNEGATIVE)},
    "plan": {"n_paths": ("8", _POSITIVE_INT),
             "t_grid": ("auto", _or_auto("comma-separated numbers", _numbers)),  # {T/4, T/2, T}
             "base_seed": ("12345", _INTEGER), "x0": ("", _NUMBERS), "y0": ("", _NUMBERS)},
    "distance": {"delta": ("auto", _or_auto("a number in (0, 1)",
                                            _checked(float, lambda d: 0.0 < d < 1.0))),
                 "n_tilde": ("auto", _or_auto("a positive number",
                                              _checked(float, lambda v: v > 0.0)))},
    "output": {"directory": ("out", _TEXT), "formats": ("csv", _choice("csv"))},
}


@dataclass
class ExperimentConfig:
    """Parsed and validated configuration.  `get` returns a key's raw string
    (its default when unset), `value` the value its parser made of it."""

    values: dict = field(default_factory=dict)  # (section, key) -> (raw, lineno)
    parsed: dict = field(default_factory=dict)  # (section, key) -> value

    def get(self, section: str, key: str) -> str:
        if (section, key) in self.values:
            return self.values[(section, key)][0]
        return _KEYS[section][key][0]

    def value(self, section: str, key: str):
        return self.parsed[(section, key)]

    def has(self, section: str, key: str) -> bool:
        return (section, key) in self.values

    def config_hash(self) -> str:
        effective = sorted(
            ((s, k), self.get(s, k)) for s, keys in _KEYS.items() for k in keys if self.get(s, k)
        )
        return hashlib.sha256(repr(effective).encode()).hexdigest()[:16]


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
            if section not in _KEYS:
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
        if key not in _KEYS[section]:
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


def _parse_values(cfg: ExperimentConfig, violations: list):
    """Every key's value through its parser, defaults included.  A value
    that does not parse keeps its default's, so the later checks still run."""
    for section, keys in _KEYS.items():
        for key, (default, parse) in keys.items():
            raw = cfg.get(section, key)
            try:
                value = parse(raw) if raw or default else None  # optional and unset
            except ValueError as exc:
                violations.append(
                    f"line {_line(cfg, section, key)}: [{section}] {key} must be {exc}, "
                    f"got {raw!r}"
                )
                value = parse(default) if default else None
            cfg.parsed[(section, key)] = value


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


def _parse_colon_list(cfg, section, key, n_idx, dim, violations) -> list:
    """Store the items of a colon list in place of its text; [] after a
    violation."""
    raw = cfg.value(section, key)
    if raw is None:
        return []
    try:
        items = _colon_items(raw, n_idx, dim)
    except ValueError as exc:
        form = ":".join(["i"] * n_idx)
        violations.append(
            f"line {_line(cfg, section, key)}: [{section}] {key} items must be "
            f"{form}:c with each i in 1..{dim} and c a number, got {str(exc)!r}"
        )
        items = []
    cfg.parsed[(section, key)] = items
    return items


def resolve_t_grid(cfg) -> np.ndarray:
    """The plan's time grid; `auto` snaps {T/4, T/2, T} onto the step grid."""
    grid = cfg.value("plan", "t_grid")
    if isinstance(grid, str):
        dt, t_final = cfg.value("stepper", "dt"), cfg.value("stepper", "t")
        steps = sorted({max(1, round(t_final * f / dt)) for f in (0.25, 0.5, 1.0)})
        return np.array([s * dt for s in steps])
    return grid


def parse_config(path) -> ExperimentConfig:
    """Read and validate a config file; raises ConfigError listing every
    violation with its line number."""
    with open(path) as fh:
        return parse_config_text(fh.read())


def parse_config_text(text: str) -> ExperimentConfig:
    values, violations = _parse_lines(text)
    cfg = ExperimentConfig(values=values)
    _parse_values(cfg, violations)
    _validate(cfg, violations)
    if violations:
        raise ConfigError(violations)
    return cfg


def _validate(cfg: ExperimentConfig, violations: list):
    """The checks that relate keys to each other or to the dimension."""
    if cfg.value("model", "kind") == "generic":
        eig = cfg.value("basis", "eigenvalues")
        dim = eig.size if eig is not None else cfg.value("basis", "m")
        n = cfg.value("model", "coupling_n")
        if not n < dim:
            line = max(_line(cfg, "model", "coupling_n"), _line(cfg, "basis", "m", "eigenvalues"))
            violations.append(f"line {line}: coupling_n must be < basis dim")
        for i, j, k, _ in _parse_colon_list(cfg, "bilinear", "entries", 3, dim, violations):
            if j == k:
                violations.append(
                    f"line {_line(cfg, 'bilinear', 'entries')}: [bilinear] entries "
                    f"item {i + 1}:{j + 1}:{k + 1} has j == k; the form is skew in (j, k)"
                )
        for key in ("rate", "shift", "scale"):
            vals = cfg.value("drift", key)
            if vals is not None and np.size(vals) not in (1, dim):
                violations.append(
                    f"line {_line(cfg, 'drift', key)}: [drift] {key} needs 1 or "
                    f"{dim} numbers, got {np.size(vals)}"
                )
        _check_noise(cfg, dim, n, violations)
    else:
        from .nse import build_fourier_grid

        dim = build_fourier_grid(cfg.value("nse", "kappa")).dim
        _parse_colon_list(cfg, "nse", "forcing", 1, dim, violations)
        if cfg.has("nse", "coupling_n") and not cfg.value("nse", "coupling_n") < dim:
            violations.append(f"line {_line(cfg, 'nse', 'coupling_n')}: [nse] coupling_n "
                              f"must be < basis dim {dim} at kappa = {cfg.value('nse', 'kappa')}")
    for key in ("x0", "y0"):
        start = cfg.value("plan", key)
        if start is not None and start.size != dim:
            violations.append(
                f"line {_line(cfg, 'plan', key)}: [plan] {key} needs {dim} numbers, "
                f"one per basis mode, got {start.size}"
            )
    grid = cfg.value("plan", "t_grid")
    if not isinstance(grid, str):
        dt, t_final = cfg.value("stepper", "dt"), cfg.value("stepper", "t")
        if np.any(grid < 0.0) or np.any(grid > t_final + 1e-12):
            line = max(_line(cfg, "plan", "t_grid"), _line(cfg, "stepper", "t"))
            violations.append(f"line {line}: [plan] t_grid times must lie in [0, T]")
        steps = np.round(grid / dt)
        if np.any(np.abs(steps * dt - grid) > 1e-9):
            line = max(_line(cfg, "plan", "t_grid"), _line(cfg, "stepper", "dt"))
            violations.append(f"line {line}: [plan] dt must divide every t_grid time within 1e-9")


def _line(cfg, section, *keys) -> int:
    """The last line among the keys set in `section`."""
    return max(cfg.values.get((section, k), ("", 0))[1] for k in keys)


def _check_noise(cfg, m, n, violations):
    """The [noise] values that diag_affine_noise and build_model reject."""
    if m < 1:
        return  # the basis is empty (coupling_n < m fails)
    amps = cfg.value("noise", "s")
    g_lo, g_hi = cfg.value("noise", "g_lo"), cfg.value("noise", "g_hi")
    c_min = cfg.value("noise", "c_min") or 0.0
    amp_key = "s" if amps is not None else "sigma0"
    if amps is None:
        amps = inverse_mode_amplitudes(m, cfg.value("noise", "sigma0"))
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


def build_model_from_config(cfg: ExperimentConfig):
    """ModelSpec for generic configs, (NseModel, ModelSpec) for nse kind."""
    value = cfg.value
    if value("model", "kind") == "nse":
        from .nse import build_fourier_grid, build_nse_model

        kappa, forcing = value("nse", "kappa"), None
        if value("nse", "forcing"):
            forcing = np.zeros(build_fourier_grid(kappa).dim)
            for idx, val in value("nse", "forcing"):
                forcing[idx] = val
        nse = build_nse_model(
            kappa=kappa,
            gamma=value("nse", "gamma"),
            sigma0=value("nse", "sigma0"),
            forcing=forcing,
            coupling_n=value("nse", "coupling_n") if cfg.has("nse", "coupling_n") else None,
            lipschitz_c1=value("model", "c1") if cfg.has("model", "c1") else None,
        )
        return nse, nse.spec

    eig = value("basis", "eigenvalues")
    if eig is not None:
        basis = SpectralBasis(eig)
    else:
        basis = quadratic_basis(value("basis", "m"), value("basis", "scale"))
    m, n = basis.dim, value("model", "coupling_n")

    if value("drift", "kind") == "linear_decay":
        drift = linear_decay_drift(value("drift", "rate"))
    else:
        shift, scale = value("drift", "shift"), value("drift", "scale")
        drift = affine_drift(
            shift if shift is not None else np.zeros(m), scale if scale is not None else 0.0
        )

    if value("bilinear", "kind") == "zero":
        bilinear = zero_form()
    else:
        entries = value("bilinear", "entries")
        bilinear = skew_shear_form(entries if entries is not None else DEFAULT_SHEAR_ENTRIES, m)

    s, c_min = value("noise", "s"), value("noise", "c_min")
    if s is None:
        s = inverse_mode_amplitudes(m, value("noise", "sigma0"))
    noise = diag_affine_noise(
        s,
        c_min=c_min if c_min is not None else float(s[:n].min()) if n > 0 else 0.0,
        g_base=value("noise", "g_base"),
        g_slope=value("noise", "g_slope"),
        g_lo=value("noise", "g_lo"),
        g_hi=value("noise", "g_hi"),
    )
    return build_model(
        basis=basis,
        drift=drift,
        bilinear=bilinear,
        noise=noise,
        lipschitz_c1=value("model", "c1"),
        coupling_n=n,
        damping_gamma=value("model", "gamma"),
    )


def stepper_from_config(cfg: ExperimentConfig) -> StepperConfig:
    return StepperConfig(
        dt=cfg.value("stepper", "dt"),
        scheme=cfg.value("stepper", "scheme"),
        penalty_n=cfg.value("stepper", "penalty_n"),
    )


def plan_from_config(cfg: ExperimentConfig, seed=None, n_paths=None):
    from .ergodicity import MonteCarloPlan

    return MonteCarloPlan(
        n_paths=n_paths if n_paths is not None else cfg.value("plan", "n_paths"),
        t_grid=resolve_t_grid(cfg),
        base_seed=seed if seed is not None else cfg.value("plan", "base_seed"),
        cfg=stepper_from_config(cfg),
    )


def check_battery_paths(cfg: ExperimentConfig):
    """The ergodicity battery's standard errors need at least two paths per
    start; [plan] n_paths = 1 is a config error there, with its line."""
    n = cfg.value("plan", "n_paths")
    if n < 2:
        raise ConfigError([f"line {_line(cfg, 'plan', 'n_paths')}: [plan] n_paths must be "
                           f"at least 2 for ergodicity, got {n}"])


def distance_from_config(cfg: ExperimentConfig, model: ModelSpec) -> DistanceParams:
    delta, n_tilde = cfg.value("distance", "delta"), cfg.value("distance", "n_tilde")
    return DistanceParams(
        n_tilde=1.0 if n_tilde == "auto" else n_tilde,
        delta=select_delta(model)[0] if delta == "auto" else delta,
    )


def start_vector(cfg: ExperimentConfig, model: ModelSpec, key: str = "x0"):
    """The config's start `key` ([plan] x0 or y0), zero when unset; its
    length is checked against the dimension at parse time."""
    vec = cfg.value("plan", key)
    return vec if vec is not None else np.zeros(model.dim)
