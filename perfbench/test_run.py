#!/usr/bin/env python3
"""Self-tests of the host-speed benchmark.

Run from the repository root: python3 perfbench/test_run.py
Each benchmark run is short (--seconds 1); the whole file takes about
a minute once hostbench is built.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args):
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=600)


def result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quick(workload, trace, *extra):
    return bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", trace, *extra)


class MetricNames(unittest.TestCase):
    def check_names(self, trace, section):
        expect = {m["name"]: m["unit"] for m in SPEC[section]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = quick(w, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                r = result(proc)
                self.assertEqual(set(r), {"correct", "attempted", "failed",
                                          "metrics"})
                self.assertTrue(r["correct"], proc.stderr)
                self.assertEqual(r["failed"], 0)
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                self.assertEqual(got, expect)

    def test_plain_run_prints_every_end_to_end_metric(self):
        self.check_names("0", "end_to_end")

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check_names("1", "per_layer")


class Reference(unittest.TestCase):
    def test_tampered_reference_fails_every_job(self):
        ref = json.loads((HERE / "reference.json").read_text())
        ref["fleet"] = {job: fp + " tampered"
                        for job, fp in ref["fleet"].items()}
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            path = Path(tmp) / "reference.json"
            path.write_text(json.dumps(ref))
            proc = quick("fleet", "0", "--reference", str(path))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        r = result(proc)
        self.assertFalse(r["correct"])
        self.assertGreater(r["attempted"], 0)
        self.assertEqual(r["failed"], r["attempted"])  # failed_frac = 1

    def test_written_reference_matches_the_stored_one(self):
        ref = json.loads((HERE / "reference.json").read_text())
        with tempfile.TemporaryDirectory(dir=HERE) as tmp:
            path = Path(tmp) / "reference.json"
            proc = quick("fleet", "0", "--reference", str(path),
                         "--write-reference")
            written = json.loads(path.read_text())
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(result(proc)["correct"], proc.stderr)
        self.assertEqual(written, {"fleet": ref["fleet"]})

    def test_other_seed_is_checked_by_invariants_only(self):
        proc = bench("--workload", "fleet", "--seed", "7", "--seconds", "1",
                     "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(result(proc)["failed"], 0)


class StrictCli(unittest.TestCase):
    def rejects(self, *args):
        proc = bench(*args)
        self.assertEqual(proc.returncode, 2, proc.stdout)
        self.assertIn("usage:", proc.stderr)
        self.assertNotIn('"correct"', proc.stdout)

    def test_bad_arguments_are_errors(self):
        ok = ["--workload", "fleet", "--seed", "1", "--seconds", "1",
              "--trace", "0"]
        nproc = os.cpu_count() or 1
        cases = {
            "unknown flag": ok + ["--thread", "2"],
            "unknown workload": ["--workload", "fleets"] + ok[2:],
            "zero threads": ok + ["--threads", "0"],
            "too many threads": ok + ["--threads", str(nproc + 1)],
            "malformed seed": ["--workload", "fleet", "--seed", "1x",
                               "--seconds", "1", "--trace", "0"],
            "negative seed": ["--workload", "fleet", "--seed", "-1",
                              "--seconds", "1", "--trace", "0"],
            "seed above 64 bits": ["--workload", "fleet", "--seed",
                                   str(2**64), "--seconds", "1",
                                   "--trace", "0"],
            "non-ASCII seconds": ["--workload", "fleet", "--seed", "1",
                                  "--seconds", "²", "--trace", "0"],
            "non-ASCII threads": ok + ["--threads", "²"],
            "bad trace": ok[:-1] + ["2"],
            "missing seed": ["--workload", "fleet", "--seconds", "1",
                             "--trace", "0"],
        }
        for name, args in cases.items():
            with self.subTest(case=name):
                self.rejects(*args)


if __name__ == "__main__":
    unittest.main()
