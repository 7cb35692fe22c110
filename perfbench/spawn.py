"""Start the ``cli`` workload's children from a small process.

    python3 -I -S perfbench/spawn.py

Reads one JSON request a line from stdin, ``{"argv": [...], "out": path,
"err": path}``, runs that child with its stdout and stderr sent to the two
files, and answers with one JSON line ``{"code", "elapsed", "maxrss_mb"}``:
exit code, seconds from spawn to exit, and the child's max RSS.

On Linux a child's max RSS starts from the RSS of the process that spawned
it (with vfork, from that process's own peak), so the children must not be
spawned by a process holding more memory than they do.  This one imports
only a few standard modules; the children are full interpreters that import
the program, so it stays below them.  A child still running after
``TIMEOUT_S`` seconds is killed.
"""

import json
import os
import signal
import sys
import time

TIMEOUT_S = 120
WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run(argv, out, err):
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, out, WRITE, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, WRITE, 0o644),
    ])
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
    elapsed = time.perf_counter() - t0
    return {"code": os.waitstatus_to_exitcode(status), "elapsed": elapsed,
            "maxrss_mb": usage.ru_maxrss * 1024 / 1e6}


def main():
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["out"], req["err"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
