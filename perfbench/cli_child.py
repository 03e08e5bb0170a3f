"""`python -m arclift ARGS` with tracing, for the traced run of cli-cold.

Runs arclift.cli.main on the given arguments with the benchmark's wrappers
installed, then appends its spans and counters to stderr after a marker
line, where the parent picks them up.  Stdout is the CLI's own, unchanged.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from arclift import cli  # noqa: E402

import tracing  # noqa: E402
from workloads import TRACE_MARKER  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.enabled = True
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.enabled = False
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARKER + json.dumps(tracer.export()) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    sys.exit(main())
