import os
import subprocess
import sys
from pathlib import Path

import pytest

from see_lab.cli import main
from see_lab.config import (
    build_model_from_config,
    distance_from_config,
    parse_config_text,
    plan_from_config,
    stepper_from_config,
)
from see_lab.errors import ConfigError

MINIMAL = "[plan]\nn_paths = 4\n"

FULL = """
# full generic experiment
[model]
kind = generic
c1 = 1.0
coupling_n = 3

[basis]
m = 12
spectrum = quadratic
scale = 4.0

[drift]
kind = linear_decay
rate = 0.3

[bilinear]
kind = skew_shear
entries = 1:2:3:0.2

[noise]
sigma0 = 0.1

[stepper]
dt = 1e-3
t = 0.5

[plan]
n_paths = 6
t_grid = 0.1,0.25,0.5
base_seed = 99

[distance]
delta = 0.25
n_tilde = 1.0

[output]
directory = out
"""


def _write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# parsing ----------------------------------------------------------------


def test_minimal_config_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.get("stepper", "dt") == "1e-3"
    assert cfg.get("basis", "m") == "16"
    assert cfg.get("model", "coupling_n") == "4"
    model = build_model_from_config(cfg)
    assert model.dim == 16 and model.coupling_n == 4
    assert stepper_from_config(cfg).dt == 1e-3


def test_full_config_round_trip():
    cfg = parse_config_text(FULL)
    model = build_model_from_config(cfg)
    assert model.dim == 12
    assert model.basis.eigenvalues[0] == 4.0
    assert model.lipschitz_c1 == 1.0
    plan = plan_from_config(cfg)
    assert plan.n_paths == 6 and plan.base_seed == 99
    dist = distance_from_config(cfg, model)
    assert dist.delta == 0.25 and dist.n_tilde == 1.0


def test_coupling_must_be_below_dim():
    bad = "[basis]\nm = 4\n[model]\ncoupling_n = 4\n"
    with pytest.raises(ConfigError, match="coupling_n must be < basis dim"):
        parse_config_text(bad)


def test_duplicate_key_reports_both_lines():
    bad = "[stepper]\ndt = 1e-3\ndt = 1e-2\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    msg = str(err.value)
    assert "line 3" in msg and "line 2" in msg and "duplicate" in msg


def test_unknown_key_rejected_with_line():
    bad = "[stepper]\ndtt = 1e-3\n"
    with pytest.raises(ConfigError, match="line 2: unknown key 'dtt'"):
        parse_config_text(bad)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text("[steppers]\ndt = 1e-3\n")


def test_grid_must_divide_dt():
    bad = "[stepper]\ndt = 1e-3\nt = 1.0\n[plan]\nt_grid = 0.25,0.33333333333\n"
    with pytest.raises(ConfigError, match="divide"):
        parse_config_text(bad)


def test_grid_must_lie_in_horizon():
    bad = "[stepper]\ndt = 1e-3\nt = 0.5\n[plan]\nt_grid = 0.25,1.0\n"
    with pytest.raises(ConfigError, match="lie in"):
        parse_config_text(bad)


@pytest.mark.parametrize(
    "section,key,value",
    [("basis", "spectrum", "flat"), ("noise", "kind", "custom"), ("output", "formats", "hdf5")],
)
def test_unimplemented_choice_rejected_with_line(section, key, value):
    text = f"[plan]\nn_paths = 4\n[{section}]\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"line 4: \[{section}\] {key} must be"):
        parse_config_text(text)


@pytest.mark.parametrize(
    "text",
    [
        "[model]\nkind = nse\n[nse]\nkappa = 1\nforcing = 0:0.05\n",
        "[model]\nkind = nse\n[nse]\nkappa = 1\nforcing = 9:0.05\n",
        "[model]\nkind = nse\n[nse]\nkappa = 1\nforcing = 1-0.05\n",
        "[model]\nkind = nse\n[nse]\nkappa = 1\nforcing = 1:abc\n",
        "[model]\ncoupling_n = 2\n[basis]\nm = 4\n[bilinear]\nentries = 1:2:x:0.1\n",
        "[model]\ncoupling_n = 2\n[basis]\nm = 4\n[drift]\nkind = affine\nscale = 2.0,1\n",
        "[model]\ncoupling_n = 2\n[basis]\nm = 4\n[noise]\ns = 0.1,abc,0.1,0.1\n",
        "[model]\ncoupling_n = 2\n[basis]\nm = 4\n[bilinear]\nkind = skew_shear\n"
        "entries = 1:2:2:0.1\n",
        "[model]\ncoupling_n = 2\n[basis]\nm = 4\n[noise]\ns = 0.1,0.1\n",
    ],
    ids=["forcing_index_0", "forcing_index_9", "forcing_no_colon", "forcing_not_a_number",
         "entries_not_an_index", "drift_scale_length", "noise_s_not_a_number",
         "entries_j_equals_k", "noise_s_length"],
)
def test_bad_list_value_is_config_error_with_line(tmp_path, capsys, text):
    # the list value sits on the last line of each config; values that parse
    # but that the model builder would reject are config errors too
    line = text.count("\n")
    cfg = _write(tmp_path, text)
    assert main(["verify-model", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: line {line}: [" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ("[noise]\ns = 0.1,-0.1,0.1,0.1\n", "[noise] s gives negative noise amplitudes"),
        ("[noise]\nsigma0 = -0.1\n", "[noise] sigma0 gives negative noise amplitudes"),
        ("[noise]\ng_lo = 2\ng_hi = 1\n", "[noise] need 0 < g_lo <= g_hi"),
        ("[noise]\ng_lo = 0\n", "[noise] need 0 < g_lo <= g_hi"),
        ("[noise]\ns = 0.1,0.01,0.1,0.1\nc_min = 0.05\n",
         "[noise] amplitudes on the coupled modes fall below c_min"),
        ("[noise]\nc_min = 0.5\n", "[noise] amplitudes on the coupled modes fall below c_min"),
    ],
    ids=["s_negative", "sigma0_negative", "g_lo_above_g_hi", "g_lo_zero", "s_below_c_min",
         "default_s_below_c_min"],
)
def test_noise_value_the_builder_rejects_is_config_error(tmp_path, capsys, text, message):
    # m = 4, coupling_n = 2; the offending value sits on the last line
    text = "[model]\ncoupling_n = 2\n[basis]\nm = 4\n" + text
    line = text.count("\n")
    cfg = _write(tmp_path, text)
    assert main(["verify-model", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: line {line}: {message}" in capsys.readouterr().err


def test_noise_values_the_builder_accepts_still_build():
    text = (
        "[model]\ncoupling_n = 2\n[basis]\nm = 4\n"
        "[noise]\ns = 0.1,0.05,0.0,0.1\nc_min = 0.05\ng_lo = 0.5\ng_hi = 2\n"
    )
    model = build_model_from_config(parse_config_text(text))
    assert model.noise.c_min == 0.05


def test_violations_are_collected():
    bad = "[stepper]\ndtt = 1\nscheme = nonsense\n[model]\nkind = weird\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    assert len(err.value.violations) >= 3


def test_auto_delta_runs_grid_search():
    cfg = parse_config_text(FULL.replace("delta = 0.25", "delta = auto"))
    model = build_model_from_config(cfg)
    from see_lab.coupling import select_delta

    dist = distance_from_config(cfg, model)
    assert dist.delta == select_delta(model)[0]


# CLI end to end -----------------------------------------------------------


def test_cli_verify_model_builtin_passes(tmp_path):
    cfg = _write(tmp_path, MINIMAL)
    out = str(tmp_path / "out")
    assert main(["verify-model", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "manifest.txt"))
    assert not os.path.exists(os.path.join(out, "failures.json"))


def test_cli_config_error_exit_code(tmp_path):
    cfg = _write(tmp_path, "[stepper]\ndtt = 1\n")
    assert main(["verify-model", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cli_simulate_writes_paths_and_manifest(tmp_path):
    text = MINIMAL + "[stepper]\nt = 0.05\n"
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", cfg, "--out", out, "--paths", "3"]) == 0
    names = sorted(os.listdir(out))
    assert "manifest.txt" in names
    assert sum(n.startswith("path_") for n in names) == 3
    manifest = open(os.path.join(out, "manifest.txt")).read()
    assert "ball_invariance" in manifest and "PASS" in manifest


def test_cli_simulate_seed_rerun_identical(tmp_path):
    text = MINIMAL + "[stepper]\nt = 0.05\n"
    cfg = _write(tmp_path, text)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfg, "--out", out_a, "--seed", "7"]) == 0
    assert main(["simulate", "--config", cfg, "--out", out_b, "--seed", "7"]) == 0
    for name in sorted(os.listdir(out_a)):
        if name == "manifest.txt":
            continue
        a = open(os.path.join(out_a, name), "rb").read()
        b = open(os.path.join(out_b, name), "rb").read()
        assert a == b, name


def test_cli_simulate_worker_count_invariant(tmp_path):
    text = MINIMAL + "[stepper]\nt = 0.05\n"
    cfg = _write(tmp_path, text)
    out_a, out_b = str(tmp_path / "w1"), str(tmp_path / "w8")
    assert main(["simulate", "--config", cfg, "--out", out_a, "--workers", "1"]) == 0
    assert main(["simulate", "--config", cfg, "--out", out_b, "--workers", "8"]) == 0
    names_a = sorted(n for n in os.listdir(out_a) if n != "manifest.txt")
    names_b = sorted(n for n in os.listdir(out_b) if n != "manifest.txt")
    assert names_a == names_b
    for name in names_a:
        a = open(os.path.join(out_a, name), "rb").read()
        b = open(os.path.join(out_b, name), "rb").read()
        assert a == b, name


def test_cli_couple_outputs(tmp_path):
    text = MINIMAL + "[stepper]\nt = 0.02\n"
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "cp")
    assert main(["couple", "--config", cfg, "--out", out, "--paths", "2"]) == 0
    names = sorted(os.listdir(out))
    assert sum(n.startswith("coupled_") for n in names) == 2
    header = open(os.path.join(out, names[0])).readline().strip()
    assert header == "t,|x-y|_H,d_N,shift_cost_cum"


def test_cli_convergence(tmp_path):
    text = "[plan]\nn_paths = 2\nx0 = 0.9,0,0,0,0,0,0,0\n[basis]\nm = 8\n[stepper]\nt = 0.2\n[drift]\nkind = affine\nscale = 2.0\n[model]\nc1 = 4.0\n"
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "conv")
    assert main(["convergence", "--config", cfg, "--out", out]) == 0
    rows = open(os.path.join(out, "penalization_convergence.csv")).read().splitlines()
    assert rows[0] == "n,sup_gap"
    gaps = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(gaps[i + 1] <= gaps[i] for i in range(len(gaps) - 1))


def test_cli_nse_verify(tmp_path):
    text = "[model]\nkind = nse\n[nse]\nkappa = 2\ngamma = 0.25\n[plan]\nn_paths = 2\n"
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "nse")
    assert main(["nse", "--config", cfg, "--out", out]) == 0
    txt = open(os.path.join(out, "verify_model.txt")).read()
    assert "divergence_free_structure" in txt


def test_cli_verify_model_nse_checks_once(tmp_path):
    # the generic checks, then the instance's own; none of them twice
    text = "[model]\nkind = nse\n[nse]\nkappa = 1\ngamma = 1.0\n"
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "vm")
    main(["verify-model", "--config", cfg, "--out", out])
    lines = open(os.path.join(out, "verify_model.txt")).read().splitlines()
    assert [ln.split("] ", 1)[1].split(":", 1)[0] for ln in lines] == [
        "lipschitz_a1", "form_bounds_a2b", "antisymmetry_a2a", "h1_spectral_gap",
        "divergence_free_structure", "h1_nse_variant",
    ]


def test_battery_and_verify_model_share_the_h1_verdict(tmp_path):
    from argparse import Namespace

    from see_lab.cli import cmd_verify_model
    from see_lab.ergodicity import run_ergodicity_battery

    cfg = parse_config_text(MINIMAL + "[stepper]\nt = 0.02\n")
    model = build_model_from_config(cfg)
    plan = plan_from_config(cfg, n_paths=2)
    _, verdicts = cmd_verify_model(cfg, Namespace(seed=None), str(tmp_path))
    report, _ = run_ergodicity_battery(model, plan, occupation=False)
    by_name = {v.name: v for v in verdicts}
    assert report.verdicts[0].name == "h1_spectral_gap"
    assert report.verdicts[0] == by_name["h1_spectral_gap"]


def test_cli_nse_ergodicity_reads_distance(tmp_path):
    text = (
        "[model]\nkind = nse\n[nse]\nkappa = 1\ngamma = 1.0\n[stepper]\nt = 0.02\n"
        "[plan]\nn_paths = 2\n[distance]\ndelta = 0.3\n"
    )
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "nse")
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        main(["nse", "--config", cfg, "--experiment", "ergodicity", "--out", out])
    summary = open(os.path.join(out, "summary.txt")).read()
    assert "distance: n_tilde=1.0 delta=0.3\n" in summary


def _output_bytes(out):
    """Every file of a run directory, the manifest without its wall clock."""
    files = {}
    for name in sorted(os.listdir(out)):
        data = open(os.path.join(out, name), "rb").read()
        if name == "manifest.txt":
            data = b"\n".join(
                ln for ln in data.splitlines() if not ln.startswith(b"wall_clock")
            )
        files[name] = data
    return files


@pytest.mark.parametrize("experiment", ["verify-model", "simulate", "ergodicity"])
def test_cli_nse_experiment_is_the_generic_subcommand(tmp_path, experiment):
    text = (
        "[model]\nkind = nse\n[nse]\nkappa = 1\ngamma = 1.0\n[stepper]\nt = 0.02\n"
        "[plan]\nn_paths = 2\n"
    )
    cfg = _write(tmp_path, text)
    out_nse, out_generic = str(tmp_path / "nse"), str(tmp_path / "generic")
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc_nse = main(["nse", "--config", cfg, "--experiment", experiment, "--out", out_nse])
        rc_generic = main([experiment, "--config", cfg, "--out", out_generic])
    assert rc_nse == rc_generic
    assert _output_bytes(out_nse) == _output_bytes(out_generic)


def test_cli_nse_simulate_starts_at_x0(tmp_path):
    text = (
        "[model]\nkind = nse\n[nse]\nkappa = 1\ngamma = 1.0\n[stepper]\nt = 0.02\n"
        "[plan]\nn_paths = 2\nx0 = 0.3,0,0,0\n"
    )
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "nse")
    assert main(["nse", "--config", cfg, "--experiment", "simulate", "--out", out]) == 0
    paths = sorted(n for n in os.listdir(out) if n.startswith("path_"))
    assert len(paths) == 2
    for name in paths:
        first = open(os.path.join(out, name)).read().splitlines()[1]
        assert first == "0.0,0.3,0.0,0.0,0.0,0.0"


@pytest.mark.parametrize("experiment", ["verify-model", "simulate"])
def test_cli_nse_rejects_a_generic_config(tmp_path, capsys, experiment):
    cfg = _write(tmp_path, MINIMAL)
    out = str(tmp_path / "nse")
    assert main(["nse", "--config", cfg, "--experiment", experiment, "--out", out]) == 1
    assert "needs [model] kind=nse" in capsys.readouterr().err
    assert not any(n.startswith("path_") for n in os.listdir(out))


def test_cli_ergodicity_small(tmp_path):
    text = """
[basis]
m = 8
scale = 4.0
[model]
c1 = 1.0
coupling_n = 3
[noise]
sigma0 = 0.1
[stepper]
t = 0.5
[plan]
n_paths = 24
t_grid = 0.1,0.25,0.5
base_seed = 5
"""
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "erg")
    code = main(["ergodicity", "--config", cfg, "--out", out])
    names = os.listdir(out)
    assert "summary.txt" in names and "weighted_contraction.csv" in names
    assert code == 0
    summary = open(os.path.join(out, "summary.txt")).read()
    assert "fitted_rate" in summary and "contraction_bound_exponent" in summary
    assert "contraction_bound_exponent_alt" not in summary


def test_cli_ergodicity_h1_violating_exits_nonzero(tmp_path, capsys):
    # flat low spectrum: lambda_(N+1) far below the threshold, so the
    # spectral-gap verdict fails and the exit code is nonzero
    text = """
[basis]
m = 8
scale = 0.05
[model]
c1 = 1.0
coupling_n = 3
[stepper]
t = 0.5
[plan]
n_paths = 8
t_grid = 0.25,0.5
base_seed = 6
"""
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "ergbad")
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["ergodicity", "--config", cfg, "--out", out])
    assert code != 0
    captured = capsys.readouterr()
    assert "spectral-gap" in captured.err
    assert os.path.exists(os.path.join(out, "failures.json"))


def test_nse_forcing_config_round_trip(monkeypatch):
    import see_lab.nse as nse

    assembled = []
    assemble = nse._assemble_convection
    monkeypatch.setattr(
        nse, "_assemble_convection", lambda grid: assembled.append(grid) or assemble(grid)
    )
    text = (
        "[model]\nkind = nse\n[nse]\nkappa = 1\ngamma = 0.25\n"
        "forcing = 1:0.05, 3:-0.02\n[plan]\nn_paths = 2\n"
    )
    cfg = parse_config_text(text)
    nse_model, spec = build_model_from_config(cfg)
    assert len(assembled) == 1
    assert nse_model.forcing[0] == 0.05
    assert nse_model.forcing[2] == -0.02
    assert spec.f0_vstar > 0.0  # nonzero forcing shows up in |f(0)|_V*


def test_python_m_see_lab_runs_the_cli(tmp_path):
    # `python -m see_lab` from a source checkout, without an install
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cfg = _write(tmp_path, MINIMAL)
    done = subprocess.run(
        [sys.executable, "-m", "see_lab", "verify-model", "--config", cfg,
         "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
