"""Time one cold set-up of a workload in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED {full,tiny} WORK_DIR

Imports see_lab from `src/` beside this directory (numpy and scipy
included), then builds the workload's inputs once.  Prints the seconds from
before the import to the end of the set-up.  `run.py` starts it several
times and reports the median as `setup_s`.
"""

from time import perf_counter

T0 = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import see_lab.cli  # noqa: E402

import workloads  # noqa: E402


def main(argv):
    name, seed, size, work_dir = argv
    workloads.make(name, see_lab, int(seed), size == "tiny", work_dir, 1).setup()
    print(repr(perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
