"""Run a command and fail when its peak resident set size exceeds a limit.

The command's own output passes through.  Its peak RSS is the ru_maxrss
that os.wait4 reports for the child (kilobytes on Linux), printed to
stderr in MB.  Until its exec the child is a copy of this interpreter,
so the reading never falls below this script's own RSS, some 14 MB.
Exits with the command's status when that is nonzero, else 1 when the
peak is above LIMIT_MB, else 0.

    python3 scripts/max_rss.py 36 arclift oracle problems/cusp_f5.json --prec 13
"""

import os
import subprocess
import sys


def main(argv):
    if len(argv) < 2:
        sys.exit("usage: max_rss.py LIMIT_MB COMMAND [ARG ...]")
    limit = float(argv[0])
    child = subprocess.Popen(argv[1:])
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    peak = usage.ru_maxrss / 1024
    print(f"peak RSS: {peak:.1f} MB (limit {limit:g} MB)", file=sys.stderr)
    if child.returncode:
        return child.returncode
    return 1 if peak > limit else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
