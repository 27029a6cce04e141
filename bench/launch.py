"""Run one command; print its wall time, CPU time and peak RSS as JSON.

    python3 bench/launch.py COMMAND [ARG...]

The benchmark starts every timed command through this small process. The
peak RSS the kernel reports for a child counts the memory of the process
that started it (the child runs in a copy of it until ``exec``), so the
benchmark, which holds the corpus bookkeeping, must not start the command
itself. CPU time and peak RSS cover the command and every worker it
reaped. The command's own output goes to this process's standard error.
"""

import json
import os
import subprocess
import sys
import time

start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=sys.stderr)
_, status, usage = os.wait4(proc.pid, 0)
wall = time.perf_counter() - start
proc.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps({
    "wall_s": wall,
    "cpu_s": usage.ru_utime + usage.ru_stime,
    "peak_rss_mib": usage.ru_maxrss / 1024,
    "exit_code": proc.returncode,
}))
