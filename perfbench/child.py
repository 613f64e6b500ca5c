"""Run one supercoinv CLI command in this fresh interpreter and report on it.

    python3 child.py RESULT_JSON TRACE [CLI ARGUMENT ...]

The engine is imported first, so the parent can time interpreter start plus
``import supercoinv`` as set-up.  With no CLI arguments only that set-up is
measured.  The command's standard output is captured and written, with its
exit code and timings (``time.monotonic``, one clock for all processes on
Linux), to RESULT_JSON.  With TRACE = 1 the tracer's spans and counters are
written too.  The process exits 0 only when ``cli.main`` returned 0.
"""

# set-up ends after this import; everything else loads after the clock is read
import supercoinv.cli
import time

T_READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    result = {"t_ready": T_READY, "module": supercoinv.__file__}
    if argv:
        tracer = None
        if trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        out = io.StringIO()
        rc, error = None, None
        started = time.monotonic()
        try:
            with contextlib.redirect_stdout(out):
                if tracer is None:
                    rc = supercoinv.cli.main(argv)
                else:
                    rc = tracer.call("cli.main", supercoinv.cli.main, argv)
        except Exception:  # the parent reports it as a failed operation
            error = traceback.format_exc()
        result.update(
            solve_s=time.monotonic() - started,
            rc=rc,
            error=error,
            stdout=out.getvalue(),
            trace=tracer.dump() if tracer else None,
        )
    else:
        rc = 0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
