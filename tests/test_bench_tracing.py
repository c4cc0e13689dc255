"""The names that bench/tracing.py patches and decodes still exist.

The tracer rebinds recorder methods, estimator functions and the arguments
of `dynamics.run_paths` by name; a rename would otherwise show only in the
benchmark's own self-test.  The module is imported from its file and nothing
is installed.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

import see_lab.dynamics
import see_lab.ergodicity


def _tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_see_lab_bench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_methods_are_own_methods():
    tracing = _tracing()
    for short, cls_name, meth, _ in tracing.TRACED_METHODS:
        cls = getattr(sys.modules["see_lab." + short], cls_name)
        assert inspect.isfunction(cls.__dict__.get(meth)), f"{cls_name}.{meth}"


def test_estimators_are_ergodicity_functions():
    tracing = _tracing()
    for name in tracing.ESTIMATORS:
        fn = getattr(see_lab.ergodicity, name, None)
        assert inspect.isfunction(fn) and fn.__module__ == "see_lab.ergodicity", name


def test_run_paths_steps_binds_call():
    tracing = _tracing()
    x0 = np.zeros((3, 4))
    head = (None, None, x0, 7, 1, range(3))
    assert tracing.run_paths_steps(head, {}) == (False, 21)
    assert tracing.run_paths_steps(head, {"y0": x0}) == (True, 21)
    assert tracing.run_paths_steps((), {"model": None, "cfg": None, "x0": x0,
                                        "n_steps": 7, "seed": 1,
                                        "path_indices": range(3)}) == (False, 21)


def test_noise_layer_is_traced_per_path_and_chunk(monkeypatch):
    # the tracer splits out the noise layer by rebinding dynamics' own name
    # for gaussian_block; run_paths must look it up there, once per noise
    # chunk for all paths
    import see_lab.cli  # noqa: F401  (the tracer wraps every see_lab module)
    import see_lab.rng
    from see_lab.coefficients import benchmark_model

    assert see_lab.dynamics.gaussian_block is see_lab.rng.gaussian_block
    model = benchmark_model()
    p, n_steps, chunk = 3, 10, 4
    monkeypatch.setattr(see_lab.dynamics, "_NOISE_CHUNK_TARGET", chunk * p * model.dim)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        see_lab.dynamics.run_paths(model, see_lab.dynamics.StepperConfig(),
                                   np.zeros((p, model.dim)), n_steps, 1, [0, 4, 9])
    finally:
        tracer.uninstall()
    noise = [s for s in tracer.spans if s[1] == "rng.gaussian_block"]
    assert len(noise) == 3  # chunks of 4, 4 and 2 steps
    assert [s[5]["rows"] for s in noise] == [4, 4, 2]
    assert sum(s[5]["rows"] for s in noise) == n_steps
    assert see_lab.dynamics.gaussian_block is see_lab.rng.gaussian_block
