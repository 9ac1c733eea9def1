"""One closed-loop client: run a request through ``cli.main`` and judge it.

Each call gets a wall-clock limit enforced by ``SIGALRM`` in the main
thread, so a stalled request ends as a timeout instead of stalling the run.
Outcomes fall into six classes; the last four are failures.

The host's CPU speed drifts by up to a factor of two over tens of seconds
(other tenants), so the runner also times a fixed calibration burst
between requests; ``scaled`` converts wall times to a nominal speed at
which that burst takes ``NOMINAL_CAL_S``.  baseline.json keeps the scaled
and unscaled figures of the same runs, which show what the scaling buys.
"""

from __future__ import annotations

import contextlib
import io
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from corpus import EXIT_CAPABILITY, Request, check_output

OK, REFUSED = "ok", "expected-refusal"
WRONG_ANSWER, WRONG_EXIT = "wrong-answer", "wrong-exit"
EXCEPTION, TIMEOUT = "exception", "timeout"
OUTCOMES = (OK, REFUSED, WRONG_ANSWER, WRONG_EXIT, EXCEPTION, TIMEOUT)
FAILURES = frozenset((WRONG_ANSWER, WRONG_EXIT, EXCEPTION, TIMEOUT))

REQUEST_LIMIT_S = 10.0
NOMINAL_CAL_S = 0.002     # the calibration burst on an unloaded 2-CPU VM


class RequestTimeout(BaseException):
    """Raised by the alarm; BaseException so the CLI's handlers miss it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


@dataclass
class Result:
    """What one call produced, before any judging."""

    seconds: float
    exit_code: object = None
    stdout: str = ""
    error: str | None = None    # exception text, or "timeout"

    def fingerprint(self) -> tuple:
        return (self.exit_code, self.stdout, self.error)


def run_request(main: Callable[[list[str]], int], argv, limit: float
                = REQUEST_LIMIT_S) -> Result:
    """Call main(argv) with stdout captured and a time limit."""
    out = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    exit_code, error = None, None
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                exit_code = main(list(argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestTimeout:
        error = "timeout"
    except SystemExit as exc:
        exit_code = exc.code
    except Exception as exc:  # an engine crash is a measured outcome
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    return Result(time.perf_counter() - start, exit_code, out.getvalue(),
                  error)


def classify(req: Request, result: Result) -> tuple[str, str]:
    """(outcome class, detail) for one request."""
    if result.error == "timeout":
        return TIMEOUT, "ran past the request time limit"
    if result.error is not None:
        return EXCEPTION, result.error
    if result.exit_code != req.expected_exit:
        return WRONG_EXIT, (f"exit {result.exit_code}, "
                            f"expected {req.expected_exit}")
    if req.expected_exit == EXIT_CAPABILITY:
        return REFUSED, ""
    problem = check_output(req, result.stdout)
    if problem is not None:
        return WRONG_ANSWER, problem
    return OK, ""


def calibrate() -> float:
    """Seconds taken by a fixed burst of Fraction, big-int and dict work
    that never touches dlaplace; it tracks the host's current speed."""
    start = time.perf_counter()
    p = [Fraction(i, i + 1) for i in range(1, 25)]
    q = [Fraction(1, i) for i in range(1, 25)]
    product = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            product[i + j] += a * b
    x = 3 ** 200
    table = {i: (x * i) % 1000003 for i in range(2000)}
    if not product[0] or sum(table.values()) <= 0:
        raise AssertionError("calibration burst miscomputed")
    return time.perf_counter() - start


def scaled(seconds: list[float], cals: list[float]) -> list[float]:
    """Each seconds[i] at nominal speed, judged by the calibration bursts
    around it: cals[i] ran just before item i and cals[i + 1] just after."""
    return [s * NOMINAL_CAL_S / statistics.median(cals[max(0, i - 1):i + 3])
            for i, s in enumerate(seconds)]
