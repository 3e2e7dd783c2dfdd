#!/usr/bin/env python3
"""Tests of the study benchmark itself.

Run from the checkout root:

    python3 perfbench/test_bench.py

Each workload runs at --size tiny in both passes. Every metric that
BENCHMARK.json defines must be printed with its unit and must appear in
the JSON result. Each check must fail when its input is deliberately
perturbed. The benchmark must refuse to run without the simulator's
sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hw_factorial", "cluster_write_faults", "traced_provenance")
# Printed beside the JSON metrics: the JSON carries the complements of
# the two shares, and leaves out run_ms_p90 (see NOTES.md).
PRINTED_ONLY = {"req_fail_frac": "ratio", "unhealthy_run_frac": "ratio",
                "run_ms_p90": "ms"}
METRIC_LINE = re.compile(r"^\s+([A-Za-z0-9][\w.\-]*)\s+=\s+(\S+)\s+(\S+)")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    return proc.returncode, proc.stdout


def printed(stdout):
    lines = {}
    for line in stdout.splitlines():
        m = METRIC_LINE.match(line)
        if m:
            lines[m.group(1)] = m.group(3)
    return lines


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        s = spec()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in s[section]}
            want_printed = dict(want, **PRINTED_ONLY) if trace == 0 else want
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    rc, out = run(workload, trace)
                    self.assertEqual(rc, 0, out[-3000:])
                    units = printed(out)
                    for name, unit in want_printed.items():
                        self.assertIn(name, units)
                        self.assertEqual(units[name], unit, name)
                    res = result(out)
                    self.assertEqual(set(res), {"correct", "attempted",
                                                "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(set(res["metrics"]), set(want))
                    for name, unit in want.items():
                        self.assertEqual(res["metrics"][name]["unit"], unit)
                    self.assertRegex(
                        out, rf"result_digest {workload} [0-9a-f]{{16}}")


class ChecksCatchPerturbation(unittest.TestCase):
    CASES = [("determinism", "hw_factorial", 1),
             ("trace_invariance", "traced_provenance", 1),
             ("repeatability", "hw_factorial", 0),
             ("refit", "cluster_write_faults", 0)] + [
                 ("answer", w, 0) for w in WORKLOADS]

    def test_each_check_fails_on_perturbed_input(self):
        for check, workload, trace in self.CASES:
            with self.subTest(check=check, workload=workload):
                rc, out = run(workload, trace, "--perturb", check)
                self.assertNotEqual(rc, 0)
                self.assertRegex(out, rf"check {check}\s+FAILED")
                self.assertFalse(result(out)["correct"])


class RefusesWithoutSources(unittest.TestCase):
    def test_bare_directory_exits_nonzero_without_result(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            rc, out = run("hw_factorial", 0, cwd=bare)
            self.assertNotEqual(rc, 0)
            self.assertNotIn('"correct"', out)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
