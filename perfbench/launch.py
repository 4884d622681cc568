"""Start run.py's child processes from a process that stays small.

Linux carries a process's peak-RSS mark across fork and exec, so a child
started straight from run.py (which holds parsed outputs and generated inputs)
would report run.py's peak as its own. This launcher imports no numpy and
starts every child instead, so ``ru_maxrss`` measures the child.

Protocol: one JSON request per stdin line, ``{"argv", "env", "cwd", "log",
"timeout"}``; one JSON reply per stdout line, ``{"wall_s", "exit_code",
"cpu_s", "rss_mb"}``. The child's stdout and stderr go to ``log``. A child
still running after ``timeout`` seconds is killed with its process group.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from time import perf_counter


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(req: dict) -> dict:
    with open(req["log"], "wb") as fh:
        start = perf_counter()
        proc = subprocess.Popen(req["argv"], env=req["env"], cwd=req["cwd"], stdout=fh,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(req["timeout"], _kill_group, (proc.pid,))
        timer.start()
        try:
            # wait4 gives the child's own rusage, including the pool workers it reaped
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit_code": proc.returncode, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
