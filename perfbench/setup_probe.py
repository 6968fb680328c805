"""Cold set-up of one workload, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``

Imports gradplay, builds the workload's problem through the public
constructors, and prints ``time.perf_counter()`` at the end.  The parent
reads the clock just before it starts this process; both clocks are the
system-wide monotonic clock, so the difference is the set-up a cold CLI
invocation pays before its first iteration.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports gradplay)


def main() -> None:
    workload = workloads.WORKLOADS[sys.argv[1]]
    workload.construct(workload.inputs(int(sys.argv[2])))
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main()
