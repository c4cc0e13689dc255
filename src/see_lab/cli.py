"""Experiment orchestration: the `see-lab` command line.

    see-lab <subcommand> --config FILE [--seed U64] [--paths INT]
            [--out DIR] [--workers INT]

Subcommands: simulate, couple, verify-model, ergodicity, nse, convergence.
`nse` needs a `[model] kind = nse` config and runs the subcommand named by
`--experiment` (verify-model, the default, simulate or ergodicity) on it;
on such a config `verify-model` adds the instance's own checks.  All
outputs land under --out together with a manifest.txt.
Each experiment steps its paths as one batch, so --workers is accepted and
has no effect.  Reruns with the same effective config produce byte-identical
result files: path results depend only on (seed, path_index), and files are
written in a fixed order.

Exit codes: 0 when every verdict of the requested experiment passed; 1 when
a verdict failed or the model builder or an experiment rejected a value
(`error: ...`); 2 for a bad command line or config, with every config
violation on its own `config error: line N: ...` line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

from . import __version__
from .config import (
    build_model_from_config,
    check_battery_paths,
    distance_from_config,
    parse_config,
    plan_from_config,
    positive_int,
    start_vector,
    stepper_from_config,
)
from .coefficients import check_antisymmetry, check_form_bounds, lipschitz_probe
from .coupling import dump_coupled_csv, shift_bound_constant, simulate_coupled_paths
from .dynamics import (
    BallRecorder,
    _write_csv,
    dump_path_csv,
    penalization_convergence_study,
    simulate_paths,
)
from .ergodicity import Verdict, h1_verdict, run_ergodicity_battery, save_battery_outputs
from .errors import ConfigError, SeeLabError
from .nse import nse_verdicts
from .spectral import h_norm_arr, validate_h1


def write_manifest(out_dir, cfg_hash, wall_clock, files, verdicts):
    """Atomically write manifest.txt (config hash, version, wall clock,
    output files, verdicts)."""
    lines = [
        f"config_hash={cfg_hash}",
        f"code_version={__version__}",
        f"wall_clock_s={wall_clock:.3f}",
        "files:",
    ]
    lines += [f"  {os.path.basename(f)}" for f in sorted(files)]
    lines.append("verdicts:")
    lines += [f"  {v.line}" for v in verdicts]
    tmp = os.path.join(out_dir, ".manifest.tmp")
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, os.path.join(out_dir, "manifest.txt"))


def _write_failures(out_dir, verdicts):
    failures = [v for v in verdicts if not v.passed]
    if failures:
        with open(os.path.join(out_dir, "failures.json"), "w") as fh:
            json.dump(
                [{"name": v.name, "detail": v.detail, "margin": v.margin} for v in failures],
                fh, indent=2, sort_keys=True,
            )
        for v in failures:
            print(v.line, file=sys.stderr)
    return failures


# ---------------------------------------------------------------------------
# subcommands


def _model_and_spec(cfg):
    built = build_model_from_config(cfg)
    if isinstance(built, tuple):
        return built  # (NseModel, ModelSpec)
    return None, built


def _plan_value(cfg, override, key):
    """A command-line override, or the config's [plan] value."""
    return override if override is not None else cfg.value("plan", key)


def cmd_simulate(cfg, args, out_dir):
    _, model = _model_and_spec(cfg)
    stepper = stepper_from_config(cfg)
    seed = _plan_value(cfg, args.seed, "base_seed")
    x0 = start_vector(cfg, model, "x0")
    ball = BallRecorder()
    paths = simulate_paths(
        model, x0, cfg.value("stepper", "t"), stepper, seed,
        range(_plan_value(cfg, args.paths, "n_paths")), [ball],
    )
    files = [dump_path_csv(path, out_dir) for path in paths]
    max_h = float(ball.max_h.max(initial=0.0))
    if stepper.scheme == "projected":
        ok, tol_txt = max_h <= 1.0, "<= 1 exactly"
    else:
        tol = 1.0 / (stepper.dt * stepper.penalty_n)
        ok, tol_txt = max_h <= 1.0 + tol, f"<= 1 + {tol:g} (penalty heuristic)"
    verdicts = [
        Verdict("ball_invariance", bool(ok), 1.0 - max_h,
                f"max |X|_H = {max_h!r} {tol_txt}")
    ]
    return files, verdicts


def _warn_if_h1_fails(model):
    """The one stderr line for a model that fails the spectral-gap condition."""
    if not validate_h1(model).passed:
        print("warning: spectral-gap condition fails for this model", file=sys.stderr)


def cmd_couple(cfg, args, out_dir):
    _, model = _model_and_spec(cfg)
    dist = distance_from_config(cfg, model)
    x0, y0 = start_vector(cfg, model, "x0"), start_vector(cfg, model, "y0")
    if not cfg.has("plan", "x0") and not cfg.has("plan", "y0"):
        x0[0], y0[0] = 0.5, -0.5  # both unset, so both zero
    c_bound = shift_bound_constant(model)  # no pseudo-inverse: fail before stepping
    _warn_if_h1_fails(model)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "spectral-gap condition fails", UserWarning)
        coupled = simulate_coupled_paths(
            model, x0, y0, cfg.value("stepper", "t"), stepper_from_config(cfg),
            _plan_value(cfg, args.seed, "base_seed"),
            range(_plan_value(cfg, args.paths, "n_paths")),
        )
    files = [dump_coupled_csv(c, dist, out_dir) for c in coupled]
    worst = 0.0
    for c in coupled:
        gap = h_norm_arr(c.x_path.states - c.y_path.states)
        bnorm = h_norm_arr(c.shift_record)
        excess = bnorm - c_bound * gap
        worst = max(worst, float(excess.max()))
    verdicts = [
        Verdict(
            "shift_bound",
            worst <= 1e-9,
            -worst,
            f"||beta|| <= lambda_(N+1)/(2 c_min g_lo) |x-y| (worst excess {worst:.3g})",
        )
    ]
    return files, verdicts


def cmd_verify_model(cfg, args, out_dir):
    nse_model, model = _model_and_spec(cfg)
    seed = _plan_value(cfg, args.seed, "base_seed")
    lp = lipschitz_probe(model, pairs=1000, seed=seed)
    fb = check_form_bounds(model, samples=1000, seed=seed + 1)
    anti = check_antisymmetry(model, samples=1000, seed=seed + 2)
    verdicts = [
        Verdict("lipschitz_a1", lp.passed, lp.declared - lp.estimate,
                f"sampled constant {lp.estimate:.6g} <= declared C1 {lp.declared:g}"),
        Verdict("form_bounds_a2b", fb.passed,
                1.0 - max(fb.max_ratio_trilinear, fb.max_ratio_bmap),
                f"trilinear ratio {fb.max_ratio_trilinear:.3g}, B(u,u) ratio "
                f"{fb.max_ratio_bmap:.3g}"),
        Verdict("antisymmetry_a2a", anti.passed,
                1e-12 - max(anti.max_antisymmetry_resid, anti.max_cancellation_resid),
                f"antisym {anti.max_antisymmetry_resid:.2e}, cancel "
                f"{anti.max_cancellation_resid:.2e}, riesz {anti.max_riesz_resid:.2e}"),
        h1_verdict(model),
    ]
    if nse_model is not None:
        verdicts += nse_verdicts(nse_model)
    path = os.path.join(out_dir, "verify_model.txt")
    with open(path, "w") as fh:
        fh.writelines(f"{v.line}\n" for v in verdicts)
    return [path], verdicts


def cmd_ergodicity(cfg, args, out_dir):
    _, model = _model_and_spec(cfg)
    plan = plan_from_config(cfg, seed=args.seed, n_paths=args.paths)
    dist = distance_from_config(cfg, model)
    _warn_if_h1_fails(model)
    report, series = run_ergodicity_battery(model, plan, dist=dist)
    files = save_battery_outputs(out_dir, report, series)
    return files, report.verdicts


def cmd_nse(cfg, args, out_dir):
    if cfg.value("model", "kind") != "nse":
        raise ConfigError(["the nse subcommand needs [model] kind=nse"])
    return _COMMANDS[args.experiment](cfg, args, out_dir)


def cmd_convergence(cfg, args, out_dir):
    _, model = _model_and_spec(cfg)
    x0 = start_vector(cfg, model, "x0")
    if not cfg.has("plan", "x0"):
        x0[0] = 0.9  # unset, so zero
    n_list = [10.0, 100.0, 1000.0, 10000.0]
    rows = penalization_convergence_study(
        model, x0, cfg.value("stepper", "t"), cfg.value("stepper", "dt"), n_list,
        _plan_value(cfg, args.seed, "base_seed"),
    )
    path = _write_csv(os.path.join(out_dir, "penalization_convergence.csv"), "n,sup_gap", rows)
    gaps = [g for _, g in rows]
    ok = all(gaps[i + 1] <= gaps[i] for i in range(len(gaps) - 1))
    verdicts = [
        Verdict("penalization_monotone", ok,
                min(gaps[i] - gaps[i + 1] for i in range(len(gaps) - 1)),
                f"sup gaps {gaps} nonincreasing along n {n_list}")
    ]
    return [path], verdicts


_COMMANDS = {
    "simulate": cmd_simulate,
    "couple": cmd_couple,
    "verify-model": cmd_verify_model,
    "ergodicity": cmd_ergodicity,
    "nse": cmd_nse,
    "convergence": cmd_convergence,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="see-lab",
        description="simulation and ergodicity-verification lab for "
        "ball-reflected stochastic evolution equations",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--paths", type=positive_int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; has no effect",
    )
    parser.add_argument(
        "--experiment", default="verify-model",
        choices=["verify-model", "simulate", "ergodicity"],
        help="sub-experiment for the nse subcommand",
    )
    args = parser.parse_args(argv)
    experiment = args.experiment if args.subcommand == "nse" else args.subcommand
    if experiment == "ergodicity" and args.paths == 1:
        parser.error("argument --paths: ergodicity needs at least 2 paths, got 1")

    try:
        cfg = parse_config(args.config)
        if experiment == "ergodicity" and args.paths is None:
            check_battery_paths(cfg)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2

    out_dir = args.out if args.out is not None else cfg.value("output", "directory")
    os.makedirs(out_dir, exist_ok=True)
    started = time.monotonic()
    try:
        files, verdicts = _COMMANDS[args.subcommand](cfg, args, out_dir)
    except SeeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall = time.monotonic() - started
    write_manifest(out_dir, cfg.config_hash(), wall, files, verdicts)
    failures = _write_failures(out_dir, verdicts)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
