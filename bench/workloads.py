"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in `setup()`, does
one unit of timed work in `run()` and judges the collected samples in
`checks()`.  Every call into see_lab goes through a module attribute
(`sl.dynamics.run_paths`, ...) looked up at call time, so the same code runs
plain or under the span tracer.

A check is `(name, kind, passed, detail)`.  kind "invariant" covers exact
properties of the outputs (ball invariant, CLI exit codes, files and
manifest verdicts); kind "verdict" covers the battery's
statistical verdicts, which can flip with the seed; kind "determinism"
covers bit-identity across batch splits and repeated iterations.  Every
kind counts as a failed operation when it fails.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from tracing import run_paths_steps


@dataclass
class Sample:
    """One timed unit of work; steps are counted per single path / per pair."""

    wall_s: float
    single_s: float
    single_steps: int
    coupled_s: float
    pair_steps: int
    digest: str
    extra: dict = field(default_factory=dict)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()[:16]


def _repeat_checks(samples):
    """Bit-identity of repeated units; none when the run made only one."""
    if len(samples) < 2:
        return []
    digests = {s.digest for s in samples}
    return [("repeat_bit_identical", "determinism", len(digests) == 1,
             f"{len(samples)} iterations, {len(digests)} distinct result digest(s)")]


class _PathBatch:
    """Shared engine of mc-batch and nse-batch: one single batch and one
    steered coupled batch per iteration, each with BallRecorders."""

    split_rows = 7

    def __init__(self, sl, seed):
        self.sl, self.seed = sl, seed

    def setup(self):
        model = self.build()
        x, y = self.starts(model.dim)
        cfg = self.sl.dynamics.StepperConfig(dt=1e-3)
        idx = np.arange(self.p)
        x0 = np.repeat(x[None, :], self.p, axis=0)
        y0 = np.repeat(y[None, :], self.p, axis=0)
        return model, cfg, idx, x0, y0

    def _single(self, inp, rows=None, n_steps=None):
        model, cfg, idx, x0, _ = inp
        rows = slice(None) if rows is None else rows
        ball = self.sl.dynamics.BallRecorder()
        xf, _ = self.sl.dynamics.run_paths(
            model, cfg, x0[rows], n_steps or self.k, self.seed, idx[rows], recorders=[ball])
        return xf, ball.max_h

    def _coupled(self, inp, rows=None, n_steps=None):
        model, cfg, idx, x0, y0 = inp
        rows = slice(None) if rows is None else rows
        bx, by = self.sl.dynamics.BallRecorder("x"), self.sl.dynamics.BallRecorder("y")
        xf, yf = self.sl.dynamics.run_paths(
            model, cfg, x0[rows], n_steps or self.k, self.seed, idx[rows],
            recorders=[bx, by], y0=y0[rows])
        return xf, yf, np.maximum(bx.max_h, by.max_h)

    def warmup(self, inp):
        # the first full batch pays for BLAS thread start-up and page faults
        self.run(inp)

    def run(self, inp):
        t0 = perf_counter()
        xs, ball_s = self._single(inp)
        t1 = perf_counter()
        xc, yc, ball_c = self._coupled(inp)
        t2 = perf_counter()
        steps = self.p * self.k
        return Sample(t2 - t0, t1 - t0, steps, t2 - t1, steps, _digest(xs, xc, yc),
                      {"ball": max(float(ball_s.max()), float(ball_c.max())),
                       "finals": (xs, xc, yc)})

    def checks(self, inp, samples):
        ball = max(s.extra["ball"] for s in samples)
        out = [
            ("ball_invariant", "invariant", ball <= 1.0,
             f"max |X|_H = {ball!r} over all states, <= 1 exactly"),
            *_repeat_checks(samples),
        ]
        # rerun a few rows as their own batch; the rows must match bit for bit
        rows = np.sort(np.random.default_rng(self.seed).choice(
            self.p, size=min(self.split_rows, self.p - 1), replace=False))
        xs, xc, yc = samples[0].extra["finals"]
        sub_s, _ = self._single(inp, rows)
        sub_x, sub_y, _ = self._coupled(inp, rows)
        for name, full, sub in (("split_single", xs[rows], sub_s),
                                ("split_coupled", np.hstack([xc[rows], yc[rows]]),
                                 np.hstack([sub_x, sub_y]))):
            gap = float(np.max(np.abs(full - sub)))
            out.append((f"{name}_bit_identical", "determinism", gap == 0.0,
                        f"{len(rows)}-row vs {self.p}-row batch, max |diff| = {gap!r}"))
        return out


class McBatch(_PathBatch):
    """benchmark_model (M=16), P=2000 single + P=2000 coupled, fixed start."""

    name = "mc-batch"

    def __init__(self, sl, seed, tiny):
        super().__init__(sl, seed)
        self.p, self.k = (8, 20) if tiny else (2000, 250)

    def build(self):
        return self.sl.coefficients.benchmark_model()

    def starts(self, m):
        x, y = np.zeros(m), np.zeros(m)
        x[0], y[0] = 0.5, -0.5
        return x, y


class NseBatch(_PathBatch):
    """2D NSE, kappa=4 (M=48), P=200 single + P=200 coupled, seeded starts."""

    name = "nse-batch"

    def __init__(self, sl, seed, tiny):
        super().__init__(sl, seed)
        self.kappa = 2 if tiny else 4
        self.p, self.k = (8, 10) if tiny else (200, 200)

    def build(self):
        return self.sl.nse.build_nse_model(kappa=self.kappa, gamma=0.25).spec

    def starts(self, m):
        g = np.random.default_rng(self.seed).standard_normal((2, m))
        return 0.5 * g[0] / np.linalg.norm(g[0]), 0.5 * g[1] / np.linalg.norm(g[1])


@contextmanager
def _step_counter(module, log):
    """Log (coupled, steps, seconds) for each run_paths call the battery
    makes (13 per battery), so its steps and time split into single and
    coupled runs."""
    inner = module.run_paths

    def counted(*args, **kwargs):
        t0 = perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            log.append((*run_paths_steps(args, kwargs), perf_counter() - t0))

    module.run_paths = counted
    try:
        yield
    finally:
        module.run_paths = inner


class Battery:
    """run_ergodicity_battery on benchmark_model, 100 paths, t = 0.1..1.0.

    At 100 paths a battery takes 6 to 9 s, so a 25 s run holds two to four
    and reports their median."""

    name = "battery"

    def __init__(self, sl, seed, tiny):
        self.sl, self.seed = sl, seed
        self.n_paths = 4 if tiny else 100
        self.t_grid = np.arange(1, 4) * 0.01 if tiny else np.arange(1, 11) * 0.1

    def setup(self):
        model = self.sl.coefficients.benchmark_model()
        plan = self.sl.ergodicity.MonteCarloPlan(
            n_paths=self.n_paths, t_grid=self.t_grid, base_seed=self.seed,
            cfg=self.sl.dynamics.StepperConfig(dt=1e-3))
        return model, plan

    def warmup(self, inp):
        pass

    def run(self, inp):
        model, plan = inp
        log = []
        with _step_counter(self.sl.ergodicity, log):
            t0 = perf_counter()
            report, series = self.sl.ergodicity.run_ergodicity_battery(
                model, plan, occupation=True)
            wall = perf_counter() - t0
        parts = [repr((v.name, v.passed, v.margin)).encode() for v in report.verdicts]
        parts += [repr((report.fitted_rate, report.shift_cost_mean)).encode()]
        parts += [s.mean for s, _ in series.values()]
        single = [(n, s) for c, n, s in log if not c]
        coupled = [(n, s) for c, n, s in log if c]
        return Sample(wall, sum(s for _, s in single), sum(n for n, _ in single),
                      sum(s for _, s in coupled), sum(n for n, _ in coupled),
                      _digest(*parts), {"verdicts": report.verdicts})

    def checks(self, inp, samples):
        out = [(f"verdict.{v.name}", "verdict", bool(v.passed),
                f"margin {v.margin!r}: {v.detail}") for v in samples[0].extra["verdicts"]]
        return out + _repeat_checks(samples)


CLI_CONFIG = """\
[model]
kind = generic
[basis]
m = 16
[stepper]
dt = 1e-3
t = {t}
[plan]
n_paths = {paths}
"""


class CliIo:
    """see_lab.cli.main in-process: simulate, then couple, into a work dir.

    simulate runs 16 paths and couple 4 pairs, so that a 25 s run holds
    about 35 units and their median holds still."""

    name = "cli-io"

    def __init__(self, sl, seed, tiny, work_dir, workers):
        self.sl, self.seed = sl, seed
        self.t = 0.05 if tiny else 0.5
        self.paths = {"simulate": 2, "couple": 2} if tiny else {"simulate": 16, "couple": 4}
        self.n_steps = int(round(self.t / 1e-3))
        self.work_dir, self.workers = work_dir, workers
        self.config_path = os.path.join(work_dir, "cli-io.cfg")
        with open(self.config_path, "w") as fh:
            fh.write(CLI_CONFIG.format(t=self.t, paths=self.paths["couple"]))

    def setup(self):
        cfg = self.sl.config.parse_config(self.config_path)
        return self.sl.config.build_model_from_config(cfg)

    def warmup(self, inp):
        # the first calls pay for the thread pool, file creation and page faults
        self.run(inp)

    def _invoke(self, sub, out):
        argv = [sub, "--config", self.config_path, "--seed", str(self.seed),
                "--paths", str(self.paths[sub]), "--out", out, "--workers", str(self.workers)]
        return self.sl.cli.main(argv)

    def _collect(self, out, prefix):
        names = sorted(os.listdir(out))
        csvs = [n for n in names if n.startswith(prefix) and n.endswith(".csv")]
        blobs = []
        for n in csvs:
            with open(os.path.join(out, n), "rb") as fh:
                blobs.append(n.encode() + fh.read())
        verdicts = []
        if "manifest.txt" in names:
            with open(os.path.join(out, "manifest.txt")) as fh:
                verdicts = [ln.strip() for ln in fh if ln.startswith("  [")]
        return {"csvs": len(csvs), "manifest": "manifest.txt" in names,
                "verdicts": verdicts}, blobs

    def run(self, inp):
        out_s = tempfile.mkdtemp(prefix="simulate-", dir=self.work_dir)
        out_c = tempfile.mkdtemp(prefix="couple-", dir=self.work_dir)
        try:
            t0 = perf_counter()
            rc_s = self._invoke("simulate", out_s)
            t1 = perf_counter()
            rc_c = self._invoke("couple", out_c)
            t2 = perf_counter()
            sim, blobs_s = self._collect(out_s, "path_")
            cpl, blobs_c = self._collect(out_c, "coupled_")
        finally:
            shutil.rmtree(out_s)
            shutil.rmtree(out_c)
        return Sample(t2 - t0, t1 - t0, self.paths["simulate"] * self.n_steps,
                      t2 - t1, self.paths["couple"] * self.n_steps, _digest(*blobs_s, *blobs_c),
                      {"rc": (rc_s, rc_c), "simulate": sim, "couple": cpl})

    def checks(self, inp, samples):
        out = []
        for i, sub in enumerate(("simulate", "couple")):
            rcs = [s.extra["rc"][i] for s in samples]
            res = [s.extra[sub] for s in samples]
            out.append((f"{sub}.exit_code", "invariant", all(rc == 0 for rc in rcs),
                        f"exit codes {sorted(set(rcs))}"))
            out.append((f"{sub}.file_count", "invariant",
                        all(r["csvs"] == self.paths[sub] and r["manifest"] for r in res),
                        f"csv files {sorted({r['csvs'] for r in res})} of {self.paths[sub]}, "
                        "manifest.txt present"))
            out.append((f"{sub}.manifest_verdicts", "invariant",
                        all(r["verdicts"] and all(v.startswith("[PASS]") for v in r["verdicts"])
                            for r in res),
                        "; ".join(res[0]["verdicts"]) or "no verdicts"))
        return out + _repeat_checks(samples)


def make(name, sl, seed, tiny, work_dir, workers):
    """The workload called `name`; only cli-io needs the work dir and workers."""
    if name == "cli-io":
        return CliIo(sl, seed, tiny, work_dir, workers)
    return {"mc-batch": McBatch, "battery": Battery, "nse-batch": NseBatch}[name](sl, seed, tiny)
