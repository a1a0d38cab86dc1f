"""Start the CLI children from a small process, one at a time.

A child's peak RSS from ``wait4`` includes the high-water mark of the
process it was spawned from: Python spawns with vfork, so the child's RSS
before exec counts the parent's. The harness parent holds the instances and
grows to hundreds of MB, so it spawns through this process, which imports
nothing but the standard library and stays near 10 MB.

Protocol: one JSON request per line on stdin, ``{"cmd", "cwd", "env",
"stderr"}``; one JSON reply per line on stdout, ``{"code", "stdout", "wall_s",
"cpu_s", "maxrss_kb"}``. Exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"],
                                    stdout=subprocess.PIPE, stderr=err, text=True)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "stdout": out, "wall_s": wall,
                 "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
