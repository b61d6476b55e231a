"""Starts the benchmark's child processes from a process that stays small.

Linux carries the resident set a process had before ``exec`` into the
``ru_maxrss`` of the program it execs. A child forked by the driver, which
holds NumPy, the inputs and the output checkers, would therefore report at
least the driver's size. The driver starts this launcher first; the
launcher imports nothing large, starts each command, waits for it, and
reports its wall time, exit code and maximum RSS.

Protocol: one JSON request per stdin line, ``{"cmd": [...], "stdout":
path, "timeout": seconds}``; one JSON reply per stdout line, ``{"wall":
seconds, "code": exit code, "rss_mb": MB}``. A command still running after
``timeout`` seconds is killed. Exits at the end of its input.
"""

import json
import os
import select
import subprocess
import sys
import time


def run(cmd, stdout_path, timeout):
    with open(stdout_path, "wb") as out, open(f"{stdout_path}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(0.0, timeout))
        finally:
            os.close(pidfd)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["cmd"], request["stdout"], request["timeout"])
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
