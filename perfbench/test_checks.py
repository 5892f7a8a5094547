"""Self-tests for the benchmark's checker: real outputs pass, and each
doctored output is rejected.  From the root of the checkout:

    python3 -m unittest discover -s perfbench
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import checks      # noqa: E402
import libworker   # noqa: E402
import run         # noqa: E402

SERRE3 = run._serre(3)


def cli_report(spec):
    """Bytes of a real `report` on spec, made by the program's CLI."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "spec.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        subprocess.run([sys.executable, "-m", "hurwitz.cli", "--spec", path,
                        "--cmd", "report", "--out", d], check=True,
                       env=dict(os.environ, PYTHONPATH=SRC))
        with open(os.path.join(d, "report.json"), "rb") as fh:
            return fh.read()


class ReportChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.a4_raw = cli_report(run.LADDER["a4"])
        cls.serre3 = json.loads(cli_report(SERRE3))

    def a4(self):
        return json.loads(self.a4_raw)

    def rejects(self, spec, rep):
        self.assertNotEqual(checks.check_report(spec, rep), [])

    def test_real_reports_pass(self):
        self.assertEqual(checks.check_report(run.LADDER["a4"], self.a4()), [])
        self.assertEqual(checks.check_report(SERRE3, self.serre3), [])

    def test_component_removed(self):
        rep = self.a4()
        del rep["components"][0]
        self.rejects(run.LADDER["a4"], rep)
        rep = self.a4()
        del rep["orbits"]["orbits"][0]
        self.rejects(run.LADDER["a4"], rep)

    def test_count_off_by_one(self):
        rep = self.a4()
        rep["enumerate"]["count"] += 1
        self.rejects(run.LADDER["a4"], rep)
        rep = self.a4()
        rep["orbits"]["lattice"]["inner_sizes"][0] -= 1
        self.rejects(run.LADDER["a4"], rep)

    def test_degree_outside_bound(self):
        rep = self.a4()
        row = rep["cusps"]["components"][0]
        row["degree"] = row["orbit_size"] + 1
        self.rejects(run.LADDER["a4"], rep)

    def test_serre_split_broken(self):
        rep = copy.deepcopy(self.serre3)
        lifts = rep["lift"]["orbits"]
        lifts[0]["lift"] = lifts[1]["lift"]
        self.rejects(SERRE3, rep)

    def test_malformed_report(self):
        rep = self.a4()
        del rep["cusps"]
        self.rejects(run.LADDER["a4"], rep)

    def test_warm_bytes_differ(self):
        raw = self.a4_raw
        self.assertEqual(checks.check_warm(raw, raw), [])
        self.assertNotEqual(checks.check_warm(raw, raw.replace(b"1", b"2", 1)),
                            [])


class CountChecks(unittest.TestCase):
    def test_closed_forms(self):
        counts = {name: checks.expected_inner_count(spec)
                  for name, spec in run.LADDER.items()}
        self.assertEqual(counts, {"a4": 30, "a5": 18, "serre7": 1008,
                                  "di5": 1248, "di7": 4608, "dih49": 1176})
        self.assertEqual(checks.expected_inner_count(run._di(11)), 29280)

    def test_orbits_off_by_one(self):
        good = {"sizes": [12, 18], "union": 30}
        self.assertEqual(checks.check_orbits(run._di(2), good), [])
        self.assertNotEqual(checks.check_orbits(
            run._di(2), {"sizes": [12, 19], "union": 31}), [])
        self.assertNotEqual(checks.check_orbits(
            run._di(2), dict(good, union=29)), [])


class TowerChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.summary = libworker.summarize_tower(
            SERRE3, libworker.run_tower(SERRE3))

    def test_real_tower_passes(self):
        self.assertEqual(checks.check_tower(SERRE3, self.summary), [])

    def test_child_count_off_by_one(self):
        s = copy.deepcopy(self.summary)
        s[0]["child_sizes"][0] += 1
        self.assertNotEqual(checks.check_tower(SERRE3, s), [])

    def test_child_lift_not_congruent(self):
        s = copy.deepcopy(self.summary)
        s[0]["child_lifts"][0] += 1
        self.assertNotEqual(checks.check_tower(SERRE3, s), [])


if __name__ == "__main__":
    unittest.main()
