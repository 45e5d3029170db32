"""Run one benchmark job in this fresh interpreter.

usage: python3 perfbench/job.py RECORD SPAWNED TRACE QUIVER KIND [ARGS...]

SPAWNED is the parent's time.monotonic() just before it started this
process.  Set-up is the span from then until `quiverdt` is imported and the
quiver file QUIVER is loaded.  KIND is `cli` (ARGS go to quiverdt.cli.main,
as `python -m quiverdt.cli ARGS` would), `script` (ARGS are a script path and
its arguments, run as `python SCRIPT ARGS` would) or `none` (set-up only).
With TRACE 1 the layers are traced after set-up.  Set-up seconds and the
trace go to the JSON file RECORD; the exit code is the job's.
"""

import json
import os
import runpy
import sys
import time


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    if isinstance(exc.code, int):
        return exc.code
    print(exc.code, file=sys.stderr)
    return 1


def main() -> int:
    record, spawned, trace, quiver, kind, *args = sys.argv[1:]
    import quiverdt.cli
    from quiverdt.quiver import load_quiver_file
    load_quiver_file(quiver)
    setup_s = time.monotonic() - float(spawned)

    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        if kind == "cli":
            code = quiverdt.cli.main(args)
        elif kind == "script":
            sys.argv = args
            sys.path[0] = os.path.dirname(os.path.abspath(args[0]))
            try:
                runpy.run_path(args[0], run_name="__main__")
                code = 0
            except SystemExit as exc:
                code = _exit_code(exc)
        else:
            code = 0
    finally:
        sys.stdout.flush()
        with open(record, "w") as fh:
            json.dump({"setup_s": setup_s, "trace": tracer and tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
