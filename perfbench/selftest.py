"""Self-test of the benchmark at a small input size.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Runs every workload traced and
untraced, and shows that the metric names and units printed are the
ones BENCHMARK.json declares, that a corrupted artifact and a nonzero
exit code each count as a failed call, that the tracer reports a call
site it could not reach, and that the benchmark refuses to run without
the program's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

SCALE = 0.02
SEED = 3


def _deadline():
    return time.monotonic() + run.DEADLINE_S


def _bench(*args, cwd=None):
    return subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)


class Workloads(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        declared = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        for name in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=name, trace=trace):
                    proc = _bench("--workload", name, "--seed", str(SEED),
                                  "--seconds", "0.1", "--trace", str(trace),
                                  "--scale", str(SCALE))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    *_, detail, last = proc.stdout.splitlines()
                    result = json.loads(last)
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed",
                                         "metrics"])
                    self.assertTrue(result["correct"], detail)
                    self.assertEqual(result["failed"], 0)
                    printed = {k: v["unit"]
                               for k, v in result["metrics"].items()}
                    self.assertEqual(printed, declared[trace])
                    env = json.loads(detail)["environment"]
                    self.assertEqual(env["seed"], SEED)
                    self.assertTrue(env["input_bytes"])


class CorruptingRun(run.Run):
    """Run whose CLI calls leave an artifact damaged by corrupt(outdir)."""

    def __init__(self, workdir, corrupt):
        super().__init__(workdir, _deadline())
        self.corrupt = corrupt

    def child(self, argv, trace=False):
        result = super().child(argv, trace)
        self.corrupt(argv[argv.index("--out") + 1])
        return result


class Failures(unittest.TestCase):
    """Failures are counted through the same Run and measure code."""

    def setUp(self):
        self.workdir = os.path.abspath(
            os.path.join(run.WORK_ROOT, f"selftest-{os.getpid()}"))
        os.makedirs(self.workdir)
        self.outdir = os.path.join(self.workdir, "out")

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _measure(self, name, inputs, reference=None, corrupt=None):
        bench = (run.Run(self.workdir, _deadline()) if corrupt is None
                 else CorruptingRun(self.workdir, corrupt))
        results, reference = run.measure(
            bench, run.WORKLOADS[name], inputs, self.outdir, 0.0, False,
            reference)
        return bench, results, reference

    def _inputs(self, name):
        rows = max(200, int(run.WORKLOADS[name].rows * SCALE))
        inputs = run.WORKLOADS[name].make(self.workdir, SEED, rows)
        if inputs.prepare is not None:
            bench = run.Run(self.workdir, _deadline())
            bench.child(inputs.prepare)
            self.assertEqual(bench.failed, 0, bench.problems)
        return inputs

    def test_corrupted_artifact_fails_the_oracle(self):
        def bump_vp(outdir):
            path = os.path.join(outdir, "eval.json")
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["vp"] += 1
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

        def bump_score(outdir):
            path = os.path.join(outdir, "predictions.csv")
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            cells = lines[1].split(",")
            cells[-1] = repr(float(cells[-1]) + 1e-9)
            lines[1] = ",".join(cells)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")

        for name, corrupt in (("labelled-pipeline", bump_vp),
                              ("deep-pipeline", bump_vp),
                              ("batch-score", bump_score)):
            with self.subTest(workload=name):
                bench, results, _ = self._measure(
                    name, self._inputs(name), corrupt=corrupt)
                self.assertEqual(len(results), 1)
                self.assertEqual(bench.failed, 1, bench.problems)

    def test_artifact_differing_from_first_call_fails(self):
        inputs = self._inputs("deep-pipeline")
        bench, _, reference = self._measure("deep-pipeline", inputs)
        self.assertEqual(bench.failed, 0, bench.problems)

        def append_line(outdir):
            with open(os.path.join(outdir, "tree.txt"), "a") as fh:
                fh.write("extra\n")

        bench, _, _ = self._measure("deep-pipeline", inputs, reference,
                                    corrupt=append_line)
        self.assertEqual(bench.failed, 1, bench.problems)
        self.assertIn("tree.txt", bench.problems[0])

    def test_nonzero_exit_counts_as_failed(self):
        inputs = self._inputs("labelled-pipeline")
        position = inputs.argv.index("--input") + 1
        inputs.argv[position] = os.path.join(self.workdir, "absent.csv")
        bench, results, _ = self._measure("labelled-pipeline", inputs)
        self.assertEqual(results[0]["exit"], 2)
        self.assertEqual((bench.attempted, bench.failed), (1, 1))


class Tracing(unittest.TestCase):
    def test_unreached_call_site_is_reported(self):
        src = os.path.abspath("src")
        proc = subprocess.run([sys.executable, "-c", f"""
import sys
sys.path[:0] = [{run.HERE!r}, {src!r}]
import solvency.cli, tracing
frozen = (solvency.dataset.load_csv,)
print(tracing.Tracer().install())
"""], capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.stdout.strip(), "['solvency.dataset.load_csv']",
                         proc.stderr)


class Refusal(unittest.TestCase):
    def test_no_result_without_sources(self):
        bare = os.path.abspath(os.path.join(run.WORK_ROOT,
                                            f"bare-{os.getpid()}"))
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        try:
            proc = _bench("--workload", "batch-score", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        if os.path.isdir(run.WORK_ROOT) and not os.listdir(run.WORK_ROOT):
            os.rmdir(run.WORK_ROOT)
