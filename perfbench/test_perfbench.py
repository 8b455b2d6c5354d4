#!/usr/bin/env python3
"""Self-tests of the grading benchmark, so it cannot rot.

  python3 -m unittest discover -s perfbench -p 'test_*.py'

The static tests check BENCHMARK.json against the benchmark contract, the
interaction map against BENCHMARK.json, and the committed verdict oracle
against its own campaign digest (recomputed here, independently of the
C++ driver). The smoke test builds the driver and grades the reduced
smoke shard (10 of 631 groups) on every workload, untraced and traced,
checking the output schema and the oracle on that subset. It is skipped
when the library sources are not next to perfbench/.
"""

import json
import os
import re
import struct
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load(path):
    with open(path) as f:
        return json.load(f)


def fnv1a64(data, h=0xcbf29ce484222325):
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xffffffffffffffff
    return h


def read_oracle(path):
    fields, groups = {}, []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "group":
                assert int(parts[1]) == len(groups)
                groups.append(int(parts[2], 16))
            elif parts[0] == "digest":
                fields["digest"] = int(parts[1], 16)
            else:
                fields[parts[0]] = int(parts[1])
    return fields, groups


class StaticChecks(unittest.TestCase):
    def setUp(self):
        self.spec = load(os.path.join(ROOT, "BENCHMARK.json"))

    def test_spec_shape(self):
        spec = self.spec
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_interaction_map_covers_spec(self):
        inter = load(os.path.join(HERE, "interactions.json"))
        self.assertEqual(sorted(inter["workloads"]),
                         sorted(w["name"] for w in self.spec["workloads"]))
        self.assertEqual(sorted(inter["per_layer"]),
                         sorted(m["name"] for m in self.spec["per_layer"]))
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        workloads = {w["name"] for w in self.spec["workloads"]} | {"all"}
        for name, entry in inter["per_layer"].items():
            self.assertLessEqual(set(entry["moves"]), e2e, name)
            self.assertLessEqual(set(entry["on"]), workloads, name)

    def test_oracle_digest(self):
        fields, groups = read_oracle(os.path.join(HERE, "verdicts.ref"))
        self.assertEqual(fields["faults_collapsed"], 39694)
        self.assertEqual(fields["faults_uncollapsed"], 54364)
        self.assertEqual(len(groups), (39694 + 62) // 63)
        # The paper-reproduction headline: 92.80% uncollapsed coverage.
        self.assertAlmostEqual(100.0 * fields["detected_uncollapsed"] /
                               fields["faults_uncollapsed"], 92.80, places=2)
        data = struct.pack("<3Q", fields["faults_collapsed"],
                           fields["faults_uncollapsed"],
                           fields["detected_uncollapsed"])
        data += struct.pack("<%dQ" % len(groups), *groups)
        self.assertEqual(fnv1a64(data), fields["digest"])


@unittest.skipUnless(os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")),
                     "library sources not present")
class Smoke(unittest.TestCase):
    def test_smoke_all_workloads(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=1200)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        self.assertEqual(proc.stdout.strip().splitlines()[-1], "SMOKE OK")


if __name__ == "__main__":
    unittest.main()
