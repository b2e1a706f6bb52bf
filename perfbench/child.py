"""One benchmark repetition: a fresh interpreter running one conetube command.

Usage: child.py RESULT_JSON [--setup-only] [--trace] -- CLI_ARGS...

The first thing this process does is import ``conetube.cli`` and note the
monotonic clock, so the parent can time interpreter start plus import.
Then it runs ``conetube.cli.main(CLI_ARGS)`` (optionally traced) and writes
the exit code, wall time, peak RSS and versions to RESULT_JSON.
"""

import time

import conetube.cli

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def run(cli_args, traced):
    tracer, missing = None, []
    if traced:
        from spans import Tracer, install
        tracer = Tracer()
        missing = install(tracer)
    out = {"exception": None}
    t0 = time.perf_counter()
    root = tracer.open("cli") if tracer else None
    try:
        out["rc"] = conetube.cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects its arguments this way
        out["rc"] = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        out["rc"] = None
        out["exception"] = traceback.format_exc()
    finally:
        if tracer:
            tracer.close(root)
    out["wall_s"] = time.perf_counter() - t0
    if tracer:
        from spans import layer_metrics, summarize
        out["layers"] = layer_metrics(summarize(tracer.spans), tracer.counts)
        out["trace_missing"] = missing
    return out


def main(argv):
    result_path, flags = argv[0], argv[1:argv.index("--")]
    out = {"ready": READY}
    if "--setup-only" not in flags:
        out.update(run(argv[argv.index("--") + 1:], "--trace" in flags))
    import numpy
    import scipy
    out["versions"] = {"python": sys.version.split()[0],
                       "numpy": numpy.__version__, "scipy": scipy.__version__}
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
