"""`python -m wtp.cli` with the layer tracer installed, for traced cli-cold runs.

Usage: python3 bench/cli_child.py <wtp arguments...>

Runs wtp.cli.main on the arguments and prints its spans and counters as one
line on standard error, after the marker tracer.TRACE_PREFIX.  The exit code
is wtp's own.
"""
import json
import sys
import time

start = time.perf_counter()
import wtp.cli  # noqa: E402  (the import is part of what is traced)

imported = time.perf_counter()

from tracer import TRACE_PREFIX, Tracer  # noqa: E402

tracer = Tracer(memory=True)
tracer.spans.append(["startup.import", start, imported, -1, -1])
tracer.install()
try:
    code = wtp.cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.export()) + "\n")
sys.exit(code)
