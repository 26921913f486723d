"""Run one completeforms command with the tracer installed.

    python tracecli.py STATS_OUT ARG...

Behaves like ``python -m completeforms.cli ARG...`` (same stdout, stderr
and exit code; an uncaught exception still prints a traceback and exits 1)
and also writes the import times and the tracer summary to STATS_OUT and
the spans to STATS_OUT with ``.spans`` appended.  The benchmark imports
nothing of its own that the program might import: ``import_s`` is the
program's import, and ``determinantal.import_s`` is the time the program
spends importing numpy, wherever it first does so (0 when it never does).
"""

import json
import sys
import time

from tracer import ImportWatch, Tracer

numpy_clock = ImportWatch(lambda name: name == "numpy").install()
start = time.perf_counter()
import completeforms.cli  # noqa: E402

import_s = time.perf_counter() - start

tracer = Tracer()
tracer.install()
stats_out = sys.argv[1]
try:
    code = completeforms.cli.main(sys.argv[2:])
finally:
    tracer.enabled = False
    with open(stats_out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "imports": {
                    "determinantal.import_s": numpy_clock.seconds.get("numpy", 0.0),
                    "import_s": import_s,
                },
                "trace": tracer.summary(),
            },
            handle,
        )
    tracer.dump(stats_out + ".spans")
sys.exit(code)
