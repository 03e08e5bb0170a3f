"""One fresh-interpreter set-up of a workload, for the setup_s metric.

Usage: python3 perfbench/setup_child.py WORKLOAD SEED

Imports arclift, draws the workload's inputs and builds what its ops reuse.
Prints three numbers: time.monotonic() at the moment the first op could
start (the parent read the same system-wide clock just before starting this
interpreter), the seconds spent on the opening calibration sample (to be
subtracted), and the calibration scale for the set-up interval.
"""

import sys
import time

import calib

if __name__ == "__main__":
    begin = time.monotonic()
    clock = calib.Clock()
    sampling = time.monotonic() - begin

    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    plan = workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
    ready = time.monotonic()
    plan.close()
    print(repr(ready), repr(sampling), repr(clock.scale()))
