"""In-memory span tracer for the see_lab layers.

`Tracer.install()` wraps every public function of the traced modules, the
batch kernels of the coefficient maps and the `on_step` hook of the public
recorders.  Each wrapper is bound at every place the program looks the
original up: module attributes (for example `see_lab.dynamics.gaussian_block`,
which `dynamics` imported by name) and dict values such as the CLI's
subcommand table.  A call records one span `(id, name, start, end, parent,
counts)`; parents come from a per-thread stack, so spans made in worker
threads start their own trees.  `uninstall()` puts the originals back.

Spans stay in memory; `layer_metrics()` reduces them to the per-layer
numbers and `write_spans()` stores them at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

TRACED_MODULES = (
    "rng", "coefficients", "nse", "dynamics", "coupling", "ergodicity", "config", "cli",
)
# (module, class, method, span name)
TRACED_METHODS = (
    ("coefficients", "BilinearForm", "bilinear_batch", "coefficients.bilinear_batch"),
    ("coefficients", "NoiseMap", "diag_batch", "coefficients.diag_batch"),
    ("coefficients", "DriftMap", "eval_batch", "coefficients.eval_batch"),
    ("dynamics", "TrajectoryRecorder", "on_step", "dynamics.recorders"),
    ("dynamics", "BallRecorder", "on_step", "dynamics.recorders"),
    ("dynamics", "ContactRecorder", "on_step", "dynamics.recorders"),
    ("dynamics", "ObstacleRecorder", "on_step", "dynamics.recorders"),
    ("ergodicity", "ValueCapture", "on_step", "dynamics.recorders"),
)
# public estimators that run_ergodicity_battery calls, plus the battery itself
ESTIMATORS = (
    "weighted_contraction_estimate", "fourth_moment_estimate",
    "exp_integrability_estimate", "lyapunov_check", "feller_modulus_estimate",
    "contraction_check", "d_small_check", "occupation_sampler",
    "invariance_residual", "coupled_distance_series", "run_ergodicity_battery",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


@functools.cache
def _run_paths_signature():
    return inspect.signature(sys.modules["see_lab.dynamics"].run_paths)


def run_paths_steps(args, kwargs):
    """(coupled, steps per system) of one `dynamics.run_paths(*args, **kwargs)`
    call: a batch of P rows run for n steps makes P * n steps."""
    a = _run_paths_signature().bind(*args, **kwargs).arguments
    return a.get("y0") is not None, int(a["x0"].shape[0]) * int(a["n_steps"])


def _count_run_paths(args, kwargs, result):
    # a coupled pair advances two states per step, so it counts two path-steps
    coupled, steps = run_paths_steps(args, kwargs)
    return {"path_steps": steps * (2 if coupled else 1)}


def _count_gaussian_block(args, kwargs, result):
    return {"rows": int(_arg(args, kwargs, 3, "n_steps"))}


def _count_bilinear(args, kwargs, result):
    form, u = args[0], _arg(args, kwargs, 1, "u")
    rows = int(u.shape[0])
    out = {"rows": rows}
    mat = getattr(form, "nse_mat", None)
    if mat is not None:
        # dense (P, M^2) @ (M^2, M) GEMM, counted from the shapes
        m2, m = mat.shape
        out["flops"] = 2 * rows * m2 * m
        out["bytes"] = 8 * (m2 * m + rows * m2 + rows * m)
    if form.nse_idx is not None:
        out["nnz"] = len(form.nse_idx[0])
    return out


def _count_csv(args, kwargs, result):
    return {"files": 1, "bytes": os.path.getsize(result)}


COUNTERS = {
    "dynamics.run_paths": _count_run_paths,
    "rng.gaussian_block": _count_gaussian_block,
    "coefficients.bilinear_batch": _count_bilinear,
    "dynamics.dump_path_csv": _count_csv,
    "coupling.dump_coupled_csv": _count_csv,
}


class Tracer:
    """Records spans around calls into the see_lab layers while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []  # (owner, key, original, is_dict)

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            counts = counter(args, kwargs, result) if counter else None
            spans.append((sid, name, t0, t1, parent, counts))
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "see_lab" or k.startswith("see_lab."))]
        for short in TRACED_MODULES:
            mod = sys.modules["see_lab." + short]
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                self._rebind(obj, self._wrap(obj, f"{short}.{name}"), mods)
        for short, cls_name, meth, span in TRACED_METHODS:
            cls = getattr(sys.modules["see_lab." + short], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(orig, span))
            self._patches.append((cls, meth, orig, False))

    def _rebind(self, orig, new, mods):
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)
                    self._patches.append((mod, key, orig, False))
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is orig:
                            val[dkey] = new
                            self._patches.append((val, dkey, orig, True))

    def uninstall(self):
        for owner, key, orig, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patches.clear()

    def reset(self):
        self.spans.clear()


def write_spans(path, spans):
    """One JSON object per span, gzip-compressed."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt") as fh:
        for sid, name, t0, t1, parent, counts in spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                 "parent": parent, "counts": counts}) + "\n")


def _self_times(spans, names):
    """Span duration minus the union of its child spans, summed per name."""
    kids = defaultdict(list)
    for sid, _, t0, t1, parent, _ in spans:
        if parent is not None:
            kids[parent].append((t0, t1))
    out = defaultdict(float)
    for sid, name, t0, t1, _, _ in spans:
        if name not in names:
            continue
        covered, end = 0.0, t0
        for c0, c1 in sorted(kids.get(sid, ())):
            c0 = max(c0, end)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[name] += (t1 - t0) - covered
    return out


def _estimator_path_steps(spans):
    by_id = {s[0]: s for s in spans}
    out = Counter()
    for sid, name, _, _, parent, counts in spans:
        if name != "dynamics.run_paths":
            continue
        while parent is not None:
            anc = by_id[parent]
            if anc[1].startswith("ergodicity."):
                out[anc[1]] += counts["path_steps"]
            parent = anc[4]
    return out


# units of deterministic counts; every other per-layer metric is a time or ratio
COUNT_UNITS = ("count", "path-steps", "flop", "B")


def layer_metrics(spans):
    """Per-layer numbers of one traced unit of work, keyed by metric name."""
    total, calls = defaultdict(float), Counter()
    counts = defaultdict(Counter)
    nnz = 0
    for _, name, t0, t1, _, c in spans:
        total[name] += t1 - t0
        calls[name] += 1
        if c:
            nnz = max(nnz, c.pop("nnz", 0))
            counts[name].update(c)
    selfs = _self_times(spans, {"dynamics.run_paths"})
    est_steps = _estimator_path_steps(spans)

    def per_row(layer):
        rows = counts[layer]["rows"]
        return 1e9 * total[layer] / rows if rows else 0.0

    csv = ("dynamics.dump_path_csv", "coupling.dump_coupled_csv")
    bil = counts["coefficients.bilinear_batch"]
    m = {
        "rng.gaussian_block.s": total["rng.gaussian_block"],
        "rng.gaussian_block.calls": calls["rng.gaussian_block"],
        "rng.gaussian_block.ns_per_path_step": per_row("rng.gaussian_block"),
        "coefficients.bilinear_batch.s": total["coefficients.bilinear_batch"],
        "coefficients.bilinear_batch.ns_per_path_step": per_row("coefficients.bilinear_batch"),
        "coefficients.diag_batch.s": total["coefficients.diag_batch"],
        "coefficients.eval_batch.s": total["coefficients.eval_batch"],
        "nse.convection.flops_computed": bil["flops"],
        "nse.convection.bytes_computed": bil["bytes"],
        "nse.tensor_nnz": nnz,
        "nse.build_nse_model.s": total["nse.build_nse_model"],
        "config.parse_config.s": total["config.parse_config"],
        "dynamics.run_paths.s": total["dynamics.run_paths"],
        "dynamics.run_paths.self_s": selfs["dynamics.run_paths"],
        "dynamics.run_paths.calls": calls["dynamics.run_paths"],
        "dynamics.path_steps": counts["dynamics.run_paths"]["path_steps"],
        "dynamics.recorders.s": total["dynamics.recorders"],
        "coupling.simulate_coupled.s": total["coupling.simulate_coupled"],
        "coupling.simulate_coupled.calls": calls["coupling.simulate_coupled"],
    }
    for est in ESTIMATORS:
        m[f"ergodicity.{est}.s"] = total[f"ergodicity.{est}"]
        m[f"ergodicity.{est}.path_steps"] = est_steps[f"ergodicity.{est}"]
    m["cli.csv.s"] = sum(total[n] for n in csv)
    m["cli.csv.bytes"] = sum(counts[n]["bytes"] for n in csv)
    m["cli.csv.files"] = sum(counts[n]["files"] for n in csv)
    m["cli.manifest.s"] = total["cli.write_manifest"]
    return m


def layer_unit(name):
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith(".ns_per_path_step"):
        return "ns"
    if name.endswith("path_steps"):
        return "path-steps"
    if name.endswith("flops_computed"):
        return "flop"
    if name.endswith("bytes_computed") or name.endswith(".bytes"):
        return "B"
    if name == "trace.overhead_frac":
        return "ratio"
    return "count"
