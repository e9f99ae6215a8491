"""Time one set-up in a fresh interpreter: import the package, build a workload's inputs.

Usage: python3 perfbench/setup_probe.py SRC_DIR WORKLOAD SEED WORKDIR
Prints the seconds taken.  run.py starts it several times and reports the
median as ``setup_s``; the thread variables come from run.py's environment.
"""

import sys
import time
from pathlib import Path


def main(argv) -> None:
    t0 = time.perf_counter()
    src, workload, seed, workdir = argv
    sys.path.insert(0, src)
    import workloads  # imports numpy and metareweight

    workloads.WORKLOADS[workload](int(seed), Path(workdir))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
