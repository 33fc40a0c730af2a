"""Traced `dpdsvd` command line: python3 cli_child.py TRACE_JSON ARGS...

Runs dpdsvd.cli.main(ARGS) with the module boundaries traced and writes
the spans to TRACE_JSON, together with the time.monotonic() reading at
which `import dpdsvd` had finished; the parent, which read the same clock
before spawning, turns the two into the `cli.start` span. The spans are
`cli.main`, `cli.load` (the CSV read, numpy.loadtxt) and those of
spans.installed. Exits with the CLI's own exit code.
"""
import json
import sys
import time

import dpdsvd
import dpdsvd.cli

IMPORT_DONE = time.monotonic()

import numpy as np  # noqa: E402  (already loaded by dpdsvd)

from spans import Tracer, installed  # noqa: E402


def main(trace_path, argv):
    tracer = Tracer()
    loadtxt = np.loadtxt

    def traced_loadtxt(*args, **kwargs):
        return tracer.call("cli.load", loadtxt, *args, **kwargs)[1]

    np.loadtxt = traced_loadtxt
    try:
        with installed(tracer):
            _, code = tracer.call("cli.main", dpdsvd.cli.main, argv)
    finally:
        np.loadtxt = loadtxt
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"import_done": IMPORT_DONE,
                   "spans": [s.as_dict() for s in tracer.spans]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
