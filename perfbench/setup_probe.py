"""Time one workload's set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed> [--tiny]``.
Prints the seconds from the first line of this script (before numpy and
``repro`` are imported) through the workload's first warm operation.
"""

import time

_STARTED = time.perf_counter()

import sys  # noqa: E402

from checkout import use_checkout_source  # noqa: E402


def main(argv) -> None:
    use_checkout_source()
    from workloads import WORKLOADS

    workload = WORKLOADS[argv[0]](int(argv[1]), tiny="--tiny" in argv)
    try:
        workload.setup()
        elapsed = time.perf_counter() - _STARTED
    finally:
        workload.close()
    print(repr(elapsed))


if __name__ == "__main__":
    main(sys.argv[1:])
