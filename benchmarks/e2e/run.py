"""Entry point the driver calls: ``python3 benchmarks/e2e/run.py --workload
NAME --seed N --seconds S --trace 0|1`` from the root of a checkout.

Only bootstraps ``sys.path`` (the checkout root for ``benchmarks.e2e``,
``src`` for ``repro`` — no ``PYTHONPATH`` needed) and hands over to
:mod:`benchmarks.e2e.runner`. In a directory without ``src/`` it exits 2
without printing a result.
"""

import os
import sys
import time

STARTED = time.perf_counter()  # set-up time counts from interpreter start

# One CPU for the whole run, set before numpy loads so that its BLAS sizes its
# thread pool to it. Every workload is one closed-loop client, so nothing is
# lost; with two vCPUs of a shared host, each hand-over between the client
# thread and the HTTP server thread (and between BLAS's two threads) waits for
# the hypervisor to schedule the other vCPU: HTTP queries per second moved by
# 25 % between runs of the same code, and by 16 % pinned.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# This directory holds a `trace.py`; as `sys.path[0]` it would shadow the
# standard library's `trace` for everything imported below.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main() -> int:
    try:
        from benchmarks.e2e.runner import main as run
    except ImportError as exc:
        print(
            f"error: cannot import the system under test ({exc}); run from a "
            "full checkout, where src/repro exists",
            file=sys.stderr,
        )
        return 2
    return run(sys.argv[1:], STARTED)


if __name__ == "__main__":
    sys.exit(main())
