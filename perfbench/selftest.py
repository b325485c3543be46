#!/usr/bin/env python3
"""Self-test of the service benchmark at a tiny scale.

    python3 perfbench/selftest.py

For every workload (those in BENCHMARK.json, and burst) it runs run.py with
--tiny and checks that the run is correct, that the e2e, phase-pass and
module-pass digests agree, and that the printed metric names are exactly the
ones BENCHMARK.json declares. It also checks that a flipped byte in the
guarded workload's snapshot log makes the recover check fail.
"""
import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# burst stays runnable though BENCHMARK.json leaves it out (README.md).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["burst"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stdout, proc.stderr


class TinyWorkloads(unittest.TestCase):
    def test_e2e_metrics_match_spec(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, result, _, err = run(w, 0)
                self.assertEqual(rc, 0, err)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), names)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])

    def test_traced_passes_agree_and_metrics_match_spec(self):
        names = {m["name"] for m in SPEC["per_layer"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, result, out, err = run(w, 1)
                self.assertEqual(rc, 0, err)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), names)
                digests = dict(re.findall(r"(\w+)=([0-9a-f]+)", out.splitlines()[-2]))
                self.assertEqual(digests["e2e"], digests["phase"])
                self.assertEqual(digests["e2e"], digests["module"])
                self.assertGreaterEqual(result["metrics"]["trace.span_coverage"]["value"], 0.95)

    def test_flipped_log_byte_fails_recover_check(self):
        rc, result, _, err = run("guarded", 0, "--flip-log-byte")
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertIn("CHECK FAILED", err)


if __name__ == "__main__":
    unittest.main()
