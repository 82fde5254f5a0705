"""Run one command to exit; print its wall time, CPU time and peak RSS as JSON.

    python3 -S launch.py TIMEOUT_S STDERR_PATH COMMAND...

On Linux a child's ru_maxrss starts from the RSS high-water mark of the
process that spawned it (the memory it replaced at exec), so the benchmark,
which holds checked outputs in memory, would leak its own peak into the
program's.  This launcher imports little and allocates nothing, so the peak
it passes on stays far below any qnd-povm process's.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout, err_path, *command = sys.argv[1:]
    with open(err_path, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(command, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(float(timeout), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                      "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
