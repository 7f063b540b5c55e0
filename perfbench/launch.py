"""Traced launcher of one benchmark workload run.

Usage::

    PYTHONPATH=src python3 perfbench/launch.py TRACE_OUT SEED cli ARG...
    PYTHONPATH=src python3 perfbench/launch.py TRACE_OUT SEED lib CALLS_JSON

Imports the entry module (``defring_audit.cli``, or ``defring_audit``
through the library-scan script), wraps the public functions of every layer,
then runs ``cli.main(ARG...)`` or the library-scan script exactly as the
untraced run would, so standard output carries the same reports.  When the
run ends it times the field-op kernels on operands seeded by SEED and
writes spans, counters, kernel timings and the entry import time to
TRACE_OUT as JSON.  The exit code is the workload's own.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402


def main(argv) -> int:
    out, seed, mode, rest = argv[0], int(argv[1]), argv[2], argv[3:]
    start = time.perf_counter()
    if mode == "cli":
        entry = importlib.import_module("defring_audit.cli")
        import_s = time.perf_counter() - start
    elif mode == "lib":
        entry = importlib.import_module("libscan")
        import_s = 0.0  # the CLI is never imported
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    modules = {layer: sys.modules.get(f"defring_audit.{layer}") for layer in tracer.LAYERS}
    mk_field = modules["ff"].mk_field
    misses_before = mk_field.cache_info().misses
    recorder = tracer.Recorder()
    recorder.install(modules)

    if mode == "cli":
        try:
            code = entry.main(rest)
        except SystemExit as exc:  # argparse errors
            code = exc.code if isinstance(exc.code, int) else 2
    else:
        with open(rest[0], encoding="utf-8") as fh:
            calls = json.load(fh)
        print(json.dumps(entry.run(calls, before_item=recorder.set_item)))
        code = 0
    sys.stdout.flush()

    counts = dict(recorder.counts)
    counts["ff.mk_field.misses"] = mk_field.cache_info().misses - misses_before
    record = {
        "spans": recorder.spans,
        "counts": counts,
        "import_s": import_s,
        "kernels": tracer.field_kernels(mk_field, seed),
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
