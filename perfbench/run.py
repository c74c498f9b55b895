"""Benchmark of the solvency command line on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measured call is a fresh
interpreter (``perfbench/child.py``) that times ``import solvency.cli``
and then ``solvency.cli.main(argv)`` on inputs this benchmark generated
from the seed; one child runs at a time, and calls repeat for S seconds.
Untimed: input generation, one import that warms the bytecode cache,
and for ``batch-score`` the run that grows the model it scores against.
Each call's artifacts are checked against oracles in ``workloads.py``
(the first call) or against the first call's SHA-256 digests (later
calls).

With ``--trace 0`` the end-to-end metrics are printed: ``wall_s``
(median seconds in ``main``), ``setup_s`` (median import seconds over
probes and calls) and ``peak_rss_mb`` (median peak RSS of a call). With
``--trace 1`` the untraced calls run as well, then for S/2 seconds
traced calls wrap each layer's public functions from outside
(``tracing.py``) and the per-layer metrics are printed: span seconds
summed per layer, stage self times, and exact counts, plus
``trace_overhead_s``. The last stdout line is the result object; the
line before it holds quartiles, sample counts, the environment and any
failed check. ``--scale`` shrinks every input, for the self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

# One BLAS thread in this process and, through the environment, in
# every child: timings and float reductions then do not depend on the
# core count.  Set before numpy is imported.
BLAS_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".perfbench-work"
SETUP_PROBES = 5
#: No call starts after this many seconds, so a run ends well inside
#: the 180 s a run may take.
DEADLINE_S = 140.0


@dataclass(frozen=True)
class Workload:
    """Full input rows, input maker and oracle; BENCHMARK.json says why."""

    rows: int
    make: Callable
    check: Callable


WORKLOADS = {
    "labelled-pipeline": Workload(
        25_000, workloads.make_labelled, workloads.check_labelled),
    "deep-pipeline": Workload(
        12_500, workloads.make_deep, workloads.check_pipeline),
    # scores against the model deep-pipeline grows from the same seed
    "batch-score": Workload(
        25_000,
        lambda workdir, seed, rows: workloads.make_batch(
            workdir, seed, rows, rows // 2),
        workloads.check_batch),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_PREFIXES = dict.fromkeys(
    prefix for functions in tracing.LAYERS.values()
    for prefix in functions.values())
PER_LAYER = {
    **{f"{prefix}_s": "s" for prefix in LAYER_PREFIXES},
    **{f"cli.{stage}_self_s": "s" for stage in tracing.STAGES},
    **dict.fromkeys(tracing.COUNTS, "count"),
    "trace_overhead_s": "s",
}


class Run:
    """Children started, failures, and the problems found."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems[:3])

    def child(self, argv: list[str], trace: bool = False) -> dict | None:
        """Run child.py once; its result, or None after a failure."""
        self.attempted += 1
        result_path = os.path.join(self.workdir, "child.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        command = [sys.executable, os.path.join(HERE, "child.py"),
                   result_path, "1" if trace else "0", *argv]
        timeout = max(10.0, self.deadline + 30.0 - time.monotonic())
        log_path = os.path.join(self.workdir, "child.log")
        with open(log_path, "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(command, stdout=log, stderr=log,
                                      timeout=timeout)
            except subprocess.TimeoutExpired:
                self.fail([f"{argv[:1]} timed out after {timeout:.0f} s"])
                return None
        if not os.path.exists(result_path):
            with open(log_path, encoding="utf-8") as log:
                tail = log.read()[-300:]
            self.fail([f"{argv[:1]} exit {proc.returncode}: {tail}"])
            return None
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if proc.returncode != 0:
            self.fail([f"{argv[:1]} exit {proc.returncode}"])
        return result


def digests(outdir: str) -> dict[str, str]:
    """SHA-256 of every artifact; manifest stage timings are zeroed,
    they are the one field allowed to vary."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            data = fh.read()
        if name == "manifest.json":
            doc = json.loads(data)
            for stage in doc["stages"]:
                stage["seconds"] = 0.0
            data = json.dumps(doc, sort_keys=True).encode()
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def measure(run: Run, workload: Workload, inputs, outdir: str,
            seconds: float, trace: bool, reference: dict | None):
    """Calls, with their checks, for seconds (at least one call); returns
    the child results that completed and the first call's digests."""
    results = []
    started = time.monotonic()
    last = 0.0
    while not results or (time.monotonic() - started < seconds
                          and time.monotonic() + last < run.deadline):
        began = time.monotonic()
        shutil.rmtree(outdir, ignore_errors=True)
        result = run.child([*inputs.argv, "--out", outdir], trace)
        if result is None:
            break
        results.append(result)
        last = time.monotonic() - began
        if result["exit"] != 0:
            continue  # already counted as failed
        try:
            if reference is None:
                problems = workload.check(outdir, inputs)
                reference = digests(outdir)
            else:
                found = digests(outdir)
                problems = [f"{name} differs from the first call's bytes"
                            for name in sorted(set(found) | set(reference))
                            if found.get(name) != reference.get(name)]
        except Exception as exc:  # any malformed artifact fails the call
            problems = [f"checking the artifacts raised {exc!r}"]
        if trace:
            if result["unreached"]:
                problems.append(f"wrappers missed {result['unreached']}")
            counts = {k: result["layers"][k] for k in tracing.COUNTS}
            if counts != {k: results[0]["layers"][k] for k in tracing.COUNTS}:
                problems.append(f"counts {counts} differ between calls")
        if problems:
            run.fail(problems)
    return results, reference


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def environment(workload: str, seed: int, inputs) -> dict:
    sha = None
    if os.path.isdir(".git"):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "workload": workload,
        "seed": seed,
        "rows": inputs.rows,
        "input_bytes": {name: os.path.getsize(path)
                        for name, path in inputs.files.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size as a share of the full size")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "solvency", "cli.py")):
        print("run from the root of a solvency checkout: src/solvency/cli.py "
              "not found", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = os.path.abspath(os.path.join(
        WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}"))
    os.makedirs(workdir)
    try:
        return _run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)


def _run(args, workload: Workload, workdir: str) -> int:
    run = Run(workdir, time.monotonic() + DEADLINE_S)
    rows = max(200, int(workload.rows * args.scale))
    inputs = workload.make(workdir, args.seed, rows)
    env = environment(args.workload, args.seed, inputs)
    run.child([])  # fills the bytecode cache; not timed
    if inputs.prepare is not None:
        run.child(inputs.prepare)
    probes = [run.child([]) for _ in range(SETUP_PROBES)]
    outdir = os.path.join(workdir, "out")
    plain, reference = measure(run, workload, inputs, outdir, args.seconds,
                               False, None)
    if not plain:
        print(f"no call completed: {run.problems}", file=sys.stderr)
        return 1
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in probes + plain if r is not None],
        "peak_rss_mb": [r["maxrss_kb"] * 1024 / 1e6 for r in plain],
    }
    units = END_TO_END
    if args.trace:
        traced, _ = measure(run, workload, inputs, outdir, args.seconds / 2,
                            True, reference)
        if not traced:
            print(f"no traced call completed: {run.problems}",
                  file=sys.stderr)
            return 1
        base = statistics.median(samples["wall_s"])
        samples.update({name: [r["layers"][name] for r in traced]
                        for name in PER_LAYER if name in traced[0]["layers"]})
        samples["trace_overhead_s"] = [r["wall_s"] - base for r in traced]
        units = PER_LAYER
    detail = {
        "environment": env,
        "failed_share": run.failed / run.attempted,
        "problems": run.problems,
        "samples": {name: spread(values) for name, values in samples.items()},
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": (samples[name][0] if unit == "count"
                                     else statistics.median(samples[name])),
                           "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
