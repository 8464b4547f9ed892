"""One jacktorus CLI invocation in a fresh interpreter, with its timings recorded.

    python3 child.py RECORD.json [--trace] [--probe] -- CLI-ARGS...

The report goes to stdout exactly as the ``jacktorus`` console script prints
it.  RECORD.json receives the CLOCK_MONOTONIC time at which ``jacktorus.cli``
finished importing (the parent stamps the same clock before spawning), the
handler wall time of ``main(argv)``, its return code and, with ``--trace``,
the tracer's buckets.  ``--probe`` stops after the import.
"""

import json
import sys
import time


def _environment(np) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {"numpy": np.__version__, "blas": blas}


def main(args: list[str]) -> int:
    sep = args.index("--")
    record_path, flags, argv = args[0], set(args[1:sep]), args[sep + 1 :]

    import jacktorus.cli as cli

    imported_ns = time.monotonic_ns()
    record = {"imported_ns": imported_ns}
    if "--probe" in flags:
        import numpy

        record["environment"] = _environment(numpy)
        rc = 0
    else:
        tracer = None
        if "--trace" in flags:
            from tracer import Tracer

            tracer = Tracer().install()
        t0 = time.perf_counter_ns()
        try:
            rc = cli.main(argv)
        finally:
            record["wall_ns"] = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            record["trace"] = tracer.raw()
        record["rc"] = rc
    sys.stdout.flush()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
