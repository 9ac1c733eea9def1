"""Self-tests of the benchmark: corpus, reference, outcome classes, tracer.

    python3 -m unittest discover -s perfbench -t perfbench
"""

from __future__ import annotations

import json
import math
import sys
import time
import unittest
from fractions import Fraction
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import runner  # noqa: E402
from corpus import Request, reference_values, rounds, trace_set  # noqa: E402
from tracer import TARGETS, Tracer, wrapper_costs  # noqa: E402

from dlaplace import cli  # noqa: E402

FIB = Request("test", "fib", ("solve", "--json",
                              "a[n+2] = a[n+1] + a[n]; a[1] = 1; a[2] = 1"),
              (Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)),
              roots=(((Fraction(1, 2), Fraction(1, 2), 5), 1),))


def first_rounds(workload: str, seed: int, count: int = 2):
    return [req.argv for batch in islice(rounds(workload, seed), count)
            for req in batch] + [req.argv for req in trace_set(workload, seed)]


class CorpusTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for name in corpus.WORKLOADS:
            self.assertEqual(first_rounds(name, 7), first_rounds(name, 7))
            self.assertNotEqual(first_rounds(name, 7), first_rounds(name, 8))

    def test_every_round_draws_each_stratum_once_per_band(self):
        for name, workload in corpus.WORKLOADS.items():
            for batch in islice(rounds(name, 3), 2):
                self.assertEqual(len(batch),
                                 corpus.BANDS * len(workload.strata))
                strata = {r.stratum for r in batch}
                self.assertEqual(len(strata), len(workload.strata))
                self.assertEqual({r.stratum for r in trace_set(name, 3)},
                                 strata)

    def test_reference_reproduces_fibonacci(self):
        self.assertEqual(reference_values(FIB, 10),
                         [1, 1, 2, 3, 5, 8, 13, 21, 34, 55])

    def test_reference_reproduces_readme_verify_example(self):
        # a[n+1] = 2*a[n] + 1; a[1] = 1 has the solution 2^n - 1
        req = Request("test", "affine", ("verify", "--json", ""),
                      (Fraction(2),), (Fraction(1),),
                      powers=((0, Fraction(1)),))
        self.assertEqual(reference_values(req, 30),
                         [2 ** n - 1 for n in range(1, 31)])

    def test_verify_reference_handles_values_past_the_float_range(self):
        # a[n+1] = 7*a[n] + 1; a[1] = 1 has the solution (7^n - 1)/6,
        # which passes 1.8e308 near n = 365; its series at s = 2 converges
        req = Request("test", "e2", ("verify", "--json", ""),
                      (Fraction(7),), (Fraction(1),),
                      powers=((0, Fraction(1)),), growth=math.log(7))
        p, q = math.exp(-2), 7 * math.exp(-2)
        series = (q / (1 - q) - p / (1 - p)) / 6
        payload = {"exact": {"passed": True, "upto": 64},
                   "numeric": {"passed": True, "checks": [
                       {"s": 2.0, "terms": 700, "series": series}]}}
        self.assertIsNone(corpus.check_output(req, json.dumps(payload)))
        payload["numeric"]["checks"][0]["series"] = series * (1 + 1e-6)
        self.assertIn("differs", corpus.check_output(req, json.dumps(payload)))

    def test_rendered_text_round_trips_through_the_parser(self):
        from dlaplace.dsl import parse_program
        for name in corpus.WORKLOADS:
            for batch in islice(rounds(name, 5), 1):
                for req in batch:
                    spec = parse_program(req.text).to_spec()
                    self.assertEqual(spec.coefficients, req.coefficients)
                    self.assertEqual(spec.initials, req.initials)


def fake(exit_code=0, stdout="", raise_=None, sleep=0.0):
    def main(argv):
        if sleep:
            deadline = time.perf_counter() + sleep
            while time.perf_counter() < deadline:
                pass
        if raise_ is not None:
            raise raise_
        print(stdout, end="")
        return exit_code
    return main


class OutcomeTest(unittest.TestCase):
    def judge(self, main, req=FIB, limit=runner.REQUEST_LIMIT_S):
        return runner.classify(req, runner.run_request(main, req.argv, limit))

    def test_correct_answer_is_ok(self):
        self.assertEqual(self.judge(cli.main)[0], runner.OK)

    def test_exit_codes(self):
        refusal = Request("test", "r", FIB.argv, FIB.coefficients,
                          FIB.initials, expected_exit=2)
        self.assertEqual(self.judge(fake(2), refusal)[0], runner.REFUSED)
        self.assertEqual(self.judge(fake(0), refusal)[0], runner.WRONG_EXIT)
        for code in (1, 2, 3):
            self.assertEqual(self.judge(fake(code))[0], runner.WRONG_EXIT)

    def test_wrong_values_are_a_wrong_answer(self):
        payload = {"values": ["1", "1", "2", "4"], "verified_upto": 64,
                   "closed_form": {"terms": [], "deltas": {}}}
        outcome, detail = self.judge(fake(0, json.dumps(payload)))
        self.assertEqual(outcome, runner.WRONG_ANSWER)
        self.assertIn("values", detail)

    def test_uncaught_exception_is_recorded_not_raised(self):
        outcome, detail = self.judge(fake(raise_=OverflowError("too big")))
        self.assertEqual(outcome, runner.EXCEPTION)
        self.assertIn("OverflowError", detail)

    def test_time_limit(self):
        start = time.perf_counter()
        outcome, _ = self.judge(fake(0, sleep=5.0), limit=0.05)
        self.assertEqual(outcome, runner.TIMEOUT)
        self.assertLess(time.perf_counter() - start, 1.0)


class TracerTest(unittest.TestCase):
    def test_install_replaces_every_binding_and_uninstall_restores(self):
        import dlaplace
        originals = {name: getattr(dlaplace, name) for name in
                     ("solve_ivp", "partial_fractions", "poly_gcd")}
        tracer = Tracer()
        tracer.install()
        try:
            for name, original in originals.items():
                for module in [m for k, m in sys.modules.items()
                               if k.startswith("dlaplace")]:
                    for value in vars(module).values():
                        self.assertIsNot(value, original)
        finally:
            tracer.uninstall()
        for name, original in originals.items():
            self.assertIs(getattr(dlaplace, name), original)
        self.assertIs(cli.solve_ivp, originals["solve_ivp"])

    def test_traced_fibonacci(self):
        plain = runner.run_request(cli.main, FIB.argv)
        costs = wrapper_costs(calls=2000, repeats=3)
        self.assertTrue(all(0 <= cost < 1e-4 for cost in costs.values()))
        tracer = Tracer(costs)
        tracer.install()
        try:
            traced = runner.run_request(lambda argv: cli.main(argv), FIB.argv)
        finally:
            tracer.uninstall()
        self.assertEqual(plain.fingerprint(), traced.fingerprint())
        # one solve plus the two initial-value basis solves
        self.assertEqual(tracer.calls["solver.transform_of"], 3)
        self.assertEqual(tracer.calls["transforms.n_power"], 0)
        self.assertEqual(tracer.sizes["exact.radicand_max"], 5)
        self.assertEqual({span[0] for span in tracer.spans if span[3] == -1},
                         {"cli.main"})
        # net of wrapper costs, the layers' self times still add up to the
        # request's time
        self.assertAlmostEqual(sum(tracer.self_time.values()),
                               tracer.inclusive["cli.main"], places=9)
        unused = {"solver.verify_solution", "transforms.n_power",
                  "numeric.check", "numeric.growth_bound", "numeric.series"}
        for _, _, name, _, _ in TARGETS:
            self.assertEqual(tracer.calls[name] == 0, name in unused, name)


class EngineAgreementTest(unittest.TestCase):
    def test_solve_homog_trace_set_meets_expectations(self):
        for req in trace_set("solve-homog", 11):
            outcome, detail = runner.classify(
                req, runner.run_request(cli.main, req.argv))
            self.assertIn(outcome, (runner.OK, runner.REFUSED),
                          f"{req.text}: {detail}")


if __name__ == "__main__":
    unittest.main()
