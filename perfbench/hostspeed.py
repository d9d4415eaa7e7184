"""Reference kernels that measure the speed of the host, not of octmoduli.

The speed of the shared host drifts by a fifth and more over minutes, and at
times the second vCPU is not available at all, far past what longer runs
average out (README.md, "Host speed").  Each kernel here does a fixed amount
of one kind of work that octmoduli also does, using none of its code:

- `interp`: interpreter work with small numpy calls, like the CLI start and
  import, `sweep` and `roundtrip`;
- `array`: large-array numpy work on one thread, like the Monte Carlo shards
  at `--workers 1`;
- `array2`: the same work split over two threads, like `--workers 2`; it
  also shows whether the second vCPU is free.

The harness times the kernels its workload uses after every CLI command or
`roundtrip` chunk, outside the timed region, and scales each time by
NOMINAL_S[kernel] / (the kernel's mean time in the run): the figure as it
would read on a host where the kernel takes NOMINAL_S.  NOMINAL_S is about
what each kernel takes on the 2-vCPU Xeon virtual machine the benchmark was
tuned on.

The kernels run in a process of their own, this file run as a script:

    python perfbench/hostspeed.py CPUS

CPUS, such as 0,1, are the CPUs `array2` runs on; the other kernels run on
the CPUs this process was started on.

Each line on stdin is a JSON object mapping kernel names to a number of
back-to-back runs; the answer is one JSON line mapping each name to the
seconds of each run.  It exits at end of input.  In a process of their own,
the kernels' times do not depend on what the harness holds in memory, which
depends on the program's outputs.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

NOMINAL_S = {"interp": 0.025, "array": 0.06, "array2": 0.035}
# kernel time after a stretch of timed work, as a share of that stretch
DUTY = 0.1

INTERP_ROUNDS = 3_750
ARRAY_ROWS = 1 << 16
ARRAY_ROUNDS = 4
_SMALL = np.array([[1.0, 0.5, 0.25], [0.5, 2.0, 0.125], [0.25, 0.125, 3.0]])
_PROJECT = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.3, 0.3, 0.3]])


def _interp() -> None:
    acc = 0.0
    for _ in range(INTERP_ROUNDS):
        b = _SMALL @ _SMALL.T
        acc += float(np.linalg.norm(b[0])) + sum(j * 0.5 for j in range(20))


def _array_block(key: int) -> float:
    rng = np.random.Generator(np.random.Philox(key=np.array([0x0C7A, key], dtype=np.uint64)))
    total = 0.0
    for _ in range(ARRAY_ROUNDS):
        w = -np.log1p(-rng.random((ARRAY_ROWS, 4)))
        p = (w / w.sum(axis=1)[:, None]) @ _PROJECT
        r2 = np.einsum("ij,ij->i", p, p)
        total += float(np.where(r2 <= 0.9, 1.0 / (1.0 - r2) ** 2, 0.0).sum())
    return total


def _array() -> None:
    for key in range(2):
        _array_block(key)


def _array2() -> None:
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALL_CPUS)  # inherited by the pool's threads
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(_array_block, range(2)))
    finally:
        os.sched_setaffinity(0, pinned)


KERNELS = {"interp": _interp, "array": _array, "array2": _array2}
ALL_CPUS: set[int] = set()


def measure(name: str) -> float:
    """Seconds the kernel `name` takes now."""
    kernel = KERNELS[name]
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def main() -> int:
    ALL_CPUS.update(int(cpu) for cpu in sys.argv[1].split(","))
    for line in sys.stdin:
        runs = json.loads(line)
        print(json.dumps({name: [measure(name) for _ in range(n)] for name, n in runs.items()}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
