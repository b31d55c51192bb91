"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {select,serve,fleet} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  The program under test is imported from
``src/`` of the same checkout.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    try:
        from perfbench import harness
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 3
    return harness.main(sys.argv[1:], STARTED)


if __name__ == "__main__":
    sys.exit(main())
