"""Run-to-run spread of the end-to-end metrics, one process per run.

    python3 bench/spread.py [--out FILE] [--against FILE]

Runs `bench/run.py --trace 0` for every workload of BENCHMARK.json with
seeds 1..10 and its `run_seconds`, then reports for every end-to-end metric
the median, the quartiles from `statistics.quantiles(values, n=4)`, and the
spread (q3 - q1) / median next to the bound from BENCHMARK.json.  A spread
at or above a third of its bound is flagged WIDE.  --out writes the raw
values, the summary and the environment block as JSON.  --against reads
such a file from an earlier set of runs and flags every median that is
worse than the earlier one by more than the bound.  Exits 1 if anything is
flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0][len("env "):])
    return env, json.loads(lines[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args(argv)
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report = {"seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    steady = True
    for wl in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            env, res = run_once(wl, seed, spec["run_seconds"])
            report["env"] = env
            runs.append(res)
            print(f"{wl} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        summary = {}
        for name, m in metrics.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flags = [] if spread < m["bound"] / 3.0 else ["WIDE"]
            line = ""
            if wl in earlier:
                before = earlier[wl]["metrics"][name]["median"]
                worse = (med - before if m["better"] == "lower" else before - med) / before
                line = f"  vs earlier {worse:+8.4f}"
                if worse > m["bound"]:
                    flags.append("DRIFT")
            steady &= not flags
            summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                             "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"],
                             "values": vals}
            print(f"  {name:26s} median {med:12.6g}  spread {spread:7.4f}  "
                  f"bound {m['bound']}{line}  {' '.join(flags) or 'ok'}", flush=True)
        report["workloads"][wl] = {
            "metrics": summary,
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "correct": [r["correct"] for r in runs],
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
