"""see-lab benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload {mc-batch,battery,nse-batch,cli-io}
                         --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy.  With --trace 0 the run prints the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer metrics
from the span tracer.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
give the environment, every check, the result digest and the counts.
BLAS threading is left as the caller set it and only recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "single_path_steps_per_s": "path-steps/s",
    "coupled_pair_steps_per_s": "pair-steps/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["mc-batch", "battery", "nse-batch", "cli-io"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny shrinks every workload for the self-test")
    return ap.parse_args(argv)


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_in_effect": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SEE_LAB_WORKERS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def cold_setup(args, work_dir):
    """Seconds of one cold set-up (import plus the workload's set-up) in a
    fresh interpreter."""
    probe = [sys.executable, str(Path(__file__).resolve().parent / "setup_probe.py"),
             args.workload, str(args.seed), args.size, work_dir]
    out = subprocess.run(probe, check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.split()[-1])


def measure(wl, inp, seconds, setup):
    """Repeat the unit of work until the next one would pass `seconds` of
    measured time, then make the SETUP_REPEATS cold set-ups, so that the
    timed units run back to back after the warm-up."""
    wl.warmup(inp)
    samples = []
    while True:
        samples.append(wl.run(inp))
        if sum(s.wall_s for s in samples) + samples[-1].wall_s > seconds:
            break
    return samples, [setup() for _ in range(SETUP_REPEATS)]


def measure_traced(wl, inp, seconds):
    """Alternate plain and traced units (set-up included) until `seconds`."""
    tracer = tracing.Tracer()
    wl.warmup(inp)
    samples, plain, traced, layers = [], [], [], []
    spans, start = [], perf_counter()
    while True:
        t0 = perf_counter()
        samples.append(wl.run(wl.setup()))
        plain.append(perf_counter() - t0)
        tracer.reset()
        tracer.install()
        try:
            t0 = perf_counter()
            samples.append(wl.run(wl.setup()))
            traced.append(perf_counter() - t0)
        finally:
            tracer.uninstall()
        spans = list(tracer.spans)
        layers.append(tracing.layer_metrics(spans))
        if perf_counter() - start + plain[-1] + traced[-1] > seconds:
            return samples, plain, traced, layers, spans


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "see_lab" / "__init__.py").is_file():
        print(f"error: no see_lab package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import see_lab.cli  # pulls in every module, numpy and scipy included

    import_s = perf_counter() - t0
    if Path(see_lab.__file__).resolve().parent != (src / "see_lab").resolve():
        print(f"error: imported see_lab from {see_lab.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    work_dir = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        wl = workloads.make(args.workload, see_lab, args.seed, args.size == "tiny",
                            work_dir, env["nproc"])
        inp = wl.setup()
        if args.trace:
            samples, plain, traced, layers, spans = measure_traced(wl, inp, args.seconds)
        else:
            samples, setups = measure(wl, inp, args.seconds,
                                      lambda: cold_setup(args, work_dir))
        checks = wl.checks(inp, samples)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace} "
          f"iterations {len(samples)}")
    first = samples[0]
    counts = {"single_path_steps": first.single_steps, "coupled_pair_steps": first.pair_steps}
    if args.trace:
        count_names = [n for n in layers[0] if tracing.layer_unit(n) in tracing.COUNT_UNITS]
        if len(layers) > 1:
            same = all(all(run[n] == layers[0][n] for n in count_names) for run in layers)
            checks.append(("trace_counts_repeat", "determinism", same,
                           f"{len(layers)} traced units, counts "
                           f"{'identical' if same else 'differ'}"))
        counts.update({n: layers[0][n] for n in count_names})
        metrics = {n: (layers[0][n] if n in count_names
                       else statistics.median(run[n] for run in layers)) for n in layers[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0)
        out = ROOT / ".bench-out" / f"spans_{args.workload}_seed{args.seed}.jsonl.gz"
        tracing.write_spans(str(out), spans)
        print(f"spans {len(spans)} written to {out.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(s.wall_s for s in samples),
            "single_path_steps_per_s": statistics.median(
                s.single_steps / s.single_s for s in samples),
            "coupled_pair_steps_per_s": statistics.median(
                s.pair_steps / s.coupled_s for s in samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(f"setup_s = median of {len(setups)} cold set-ups {setups!r}; "
              f"this process imported see_lab in {import_s!r} s")
    for name, kind, passed, detail in checks:
        print(f"check {'PASS' if passed else 'FAIL'} [{kind}] {name}: {detail}")
    print(f"result_digest {first.digest} (informational, not gated)")
    print("counts " + json.dumps(counts, sort_keys=True))

    units = {n: (tracing.layer_unit(n) if args.trace else END_TO_END_UNITS[n]) for n in metrics}
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    failed = sum(1 for c in checks if not c[2])
    print(f"ops_attempted {len(checks)} failed {failed} failed_frac {failed / len(checks)!r}")
    result = {
        "correct": not any(kind == "invariant" and not ok for _, kind, ok, _ in checks),
        "attempted": len(checks),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
