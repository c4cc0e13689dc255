"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 bench/selftest.py

For every workload it checks that a --trace 0 run prints exactly the
end-to-end metrics of BENCHMARK.json with their units, that two --trace 1
runs print exactly the per-layer metrics with their units and agree on every
count, and that the last line has exactly the keys the contract names.  It
also checks that the benchmark refuses to run, without printing a result,
from a copy that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from tracing import COUNT_UNITS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, check=True):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    if check and proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return proc


def result_of(proc):
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"], sorted(res)
    assert isinstance(res["correct"], bool)
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]
    return res


def assert_metrics(res, declared, where):
    got = {n: m["unit"] for n, m in res["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    assert got == want, f"{where}: metrics differ: missing {sorted(set(want) - set(got))}, " \
                        f"extra {sorted(set(got) - set(want))}, or units differ"
    for name, m in res["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name} not a number"


def main():
    for w in SPEC["workloads"]:
        name = w["name"]
        assert_metrics(result_of(run(name, 0)), SPEC["end_to_end"], f"{name} trace 0")
        first, second = (result_of(run(name, 1)) for _ in range(2))
        for res in (first, second):
            assert_metrics(res, SPEC["per_layer"], f"{name} trace 1")
        counts = {n: m["value"] for n, m in first["metrics"].items()
                  if m["unit"] in COUNT_UNITS}
        again = {n: second["metrics"][n]["value"] for n in counts}
        assert counts == again, f"{name}: counts differ across runs: " + ", ".join(
            f"{n} {counts[n]} vs {again[n]}" for n in counts if counts[n] != again[n])
        print(f"ok {name}: {len(first['metrics'])} per-layer metrics, "
              f"{len(counts)} counts repeat", flush=True)

    bare = Path(tempfile.mkdtemp(prefix=".bench-selftest-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare, check=False)
        assert proc.returncode != 0, "benchmark ran without the package"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without the package"
    finally:
        shutil.rmtree(bare)
    print("ok bare copy: exits", proc.returncode, "without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
