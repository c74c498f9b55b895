"""One timed CLI call in a fresh interpreter.

    python3 perfbench/child.py RESULT_JSON TRACE [CLI ARGS...]

Times ``import solvency.cli`` (set-up) and then ``solvency.cli.main``
on the given arguments, and writes the timings, the exit code and the
process's peak RSS to RESULT_JSON.  With TRACE 1 the solvency modules'
public functions are wrapped first and the spans are written too.
With no CLI arguments only the import is timed.  ``src/`` of the
current directory is put first on the module path, so the checkout's
own sources are measured.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    started = time.perf_counter()
    import solvency.cli
    setup_s = time.perf_counter() - started
    if not solvency.cli.__file__.startswith(src + os.sep):
        print(f"imported {solvency.cli.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if argv:
        tracer = None
        if trace:
            import tracing
            tracer = tracing.Tracer()
            unreached = tracer.install()
        started = time.perf_counter()
        code = solvency.cli.main(argv)
        result["wall_s"] = time.perf_counter() - started
        result["exit"] = code
        if tracer is not None:
            result["layers"] = tracer.summary()
            result["unreached"] = unreached
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return result.get("exit", 0)


if __name__ == "__main__":
    sys.exit(main())
