"""Small process that starts the benchmark's CLI children and times them.

A child's ru_maxrss starts from the peak RSS of the process that started it
(Linux carries the old memory's high-water mark over `exec`).  The harness
holds numpy, mpmath and parsed outputs, well above a CLI child's own peak,
so it starts its children through this process, which imports nothing
large:

    python perfbench/spawner.py

Each line on stdin is a JSON object {"argv": [...], "stdout": path,
"stderr": path, "cpus": [...] or null}.  It runs argv with stdout and
stderr written to those files, on the given CPUs (null: on this process's
own), and answers with one JSON line: exit code, wall time from spawn to
exit, time from spawn to the first stdout line, and the child's ru_maxrss
in KiB from os.wait4.  It exits at end of input.  A child is killed if
this process dies first.
"""

import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

PR_SET_PDEATHSIG = 1
_libc = ctypes.CDLL(None, use_errno=True)


def run(argv, stdout_path: str, stderr_path: str, cpus) -> dict:
    def before_exec():
        _libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
        if cpus is not None:
            os.sched_setaffinity(0, cpus)

    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                preexec_fn=before_exec)
        out.write(proc.stdout.readline())
        first_at = time.perf_counter()
        shutil.copyfileobj(proc.stdout, out)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall, "first_output": first_at - start,
            "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(run(request["argv"], request["stdout"], request["stderr"],
                             request["cpus"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
