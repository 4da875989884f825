"""Start the benchmark's commands from a process that holds little memory.

    python perfbench/launcher.py    (started by run.py; JSON lines on stdin/stdout)

On Linux a child's ``ru_maxrss`` starts from the memory of the process that
forked it.  ``run.py`` holds numpy and the workload's inputs, so it starts
every command through this launcher, which imports only the standard
library, and the peak RSS it reports is the command's own.

Each request line is ``{"argv", "cwd", "out", "err", "timeout"}``.  The
launcher runs argv to completion with stdout and stderr in the named files,
kills it at the timeout, and answers ``{"wall", "cpu", "maxrss_kb",
"returncode"}``.  It exits when its stdin closes, and on SIGTERM after
killing and reaping the command it is running.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def main():
    running = []

    def stop(signum, frame):
        for proc in running:
            proc.kill()
            proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=req["cwd"])
            running.append(proc)
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        running.clear()
        print(json.dumps({"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                          "maxrss_kb": usage.ru_maxrss, "returncode": proc.returncode}),
              flush=True)


if __name__ == "__main__":
    main()
