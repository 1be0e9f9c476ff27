"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a source checkout: the tiny-input pass builds and
drives the real `cyclesteal` binary.
"""

import json
import math
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class Names(unittest.TestCase):
    def test_workloads_are_named_and_runnable(self):
        names = [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))
        for name in names:
            self.assertRegex(name, NAME)
            self.assertIn(name, run.RUNNERS)

    def test_every_metric_has_a_valid_name_and_unit(self):
        for group, units in (("end_to_end", run.E2E_UNITS),
                             ("per_layer", run.LAYER_UNITS)):
            declared = {m["name"]: m["unit"] for m in SPEC[group]}
            self.assertEqual(declared, units, group)
            for name, unit in declared.items():
                self.assertTrue(NAME.fullmatch(name), name)
                self.assertTrue(UNIT.fullmatch(unit), f"{name}: {unit!r}")


def fake(out):
    return run.Run(0, 0.1, 0.1, 1.0, out, "")


class Checks(unittest.TestCase):
    """The output checks reject wrong output, not only accept right output."""

    def test_drained_check(self):
        ok = "drained       : true\nbanked work   : 40.0\n"
        self.assertIsNone(run.drained_check(40)(fake(ok)))
        self.assertIsNotNone(run.drained_check(41)(fake(ok)))
        self.assertIsNotNone(
            run.drained_check(40)(fake(ok.replace("true", "false"))))

    def test_resume_check(self):
        journaled = fake("banked work   : 40.0\nlost work     : 3.0\n")
        doc = {"summary": "farm_resume", "snapshot": "used",
               "records_appended": 0, "degraded": False}

        def resume(**changes):
            line = json.dumps({**doc, **changes})
            return fake(journaled.out + f"RUN-SUMMARY {line}\n")

        check = run.resume_check(journaled)
        self.assertIsNone(check(resume()))
        self.assertIsNotNone(check(resume(snapshot="fallback:missing")))
        self.assertIsNotNone(check(resume(records_appended=2)))
        self.assertIsNotNone(check(resume(degraded=True)))
        lost = fake(resume().out.replace("lost work     : 3.0",
                                         "lost work     : 4.0"))
        self.assertIsNotNone(check(lost))


class TinyPass(unittest.TestCase):
    """Every workload, at tiny sizes, returns every declared metric with zero
    failed checks, in both modes."""

    @classmethod
    def setUpClass(cls):
        cls.binaries = run.build()

    def test_each_workload(self):
        for w in run.WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=w, trace=trace):
                    r = run.measure(w, run.DEFAULT_SEED, 0.0, trace, run.TINY,
                                    run.TINY, self.binaries)
                    group = "per_layer" if trace else "end_to_end"
                    want = [m["name"] for m in SPEC[group]]
                    self.assertEqual(sorted(r["metrics"]), sorted(want))
                    self.assertGreaterEqual(r["attempted"], run.MIN_ITERS)
                    self.assertEqual(r["failed"], 0)
                    self.assertTrue(r["correct"])
                    for name, m in r["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)


if __name__ == "__main__":
    unittest.main()
