"""dlaplace benchmark: seeded corpora through ``cli.main``, one client.

    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

runs every workload from the root of a checkout and prints, per workload,
each metric with its unit and sample count, the failures by input, and a
last line of JSON.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` runs a fixed request set alternately untraced
and traced and reports the per-layer metrics.  The engine is imported from
``src/`` of the checkout that holds this file; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from corpus import REFERENCE_SECONDS, WORKLOADS, rounds, trace_set
from runner import (FAILURES, NOMINAL_CAL_S, OUTCOMES, WRONG_ANSWER,
                    calibrate, classify, run_request, scaled)
from tracer import LAYERS, Tracer, wrapper_costs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 15


def load_cli():
    """Import dlaplace.cli from this checkout's src/, or exit with an error."""
    target = SRC / "dlaplace" / "cli.py"
    if not target.is_file():
        sys.exit(f"perfbench: {target} not found; run from a dlaplace checkout")
    sys.path.insert(0, str(SRC))
    import dlaplace.cli as cli
    if Path(cli.__file__).resolve() != target.resolve():
        sys.exit(f"perfbench: imported {cli.__file__}, expected {target}")
    return cli


def measure_setup() -> tuple[float, float]:
    """Median time, scaled and raw, that a fresh interpreter takes to
    import dlaplace.cli, timed inside it: the interpreter's own start-up,
    which no change to dlaplace can move, is left out."""
    code = ("import time; start = time.perf_counter(); import sys; "
            f"sys.path.insert(0, {str(SRC)!r}); import dlaplace.cli; "
            "print(time.perf_counter() - start)")
    command = [sys.executable, "-I", "-c", code]
    subprocess.run(command, check=True,     # bytecode and file cache warm
                   stdout=subprocess.DEVNULL)
    times, cals = [], [calibrate()]
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(command, check=True, capture_output=True,
                               text=True)
        times.append(float(child.stdout))
        cals.append(calibrate())
    return statistics.median(scaled(times, cals)), statistics.median(times)


def run_set(cli, requests, tracer=None, cals=None) -> tuple[list, float]:
    """Run requests in order; with `cals`, append a calibration burst after
    each one (outside the request's own time)."""
    results = []
    start = time.perf_counter()
    for index, req in enumerate(requests):
        if tracer is not None:
            tracer.request = index
        # look main up per call: the tracer may have replaced it
        results.append(run_request(lambda argv: cli.main(argv), req.argv))
        if cals is not None:
            cals.append(calibrate())
    return results, time.perf_counter() - start


def closed_loop(cli, workload: str, seed: int, seconds: float):
    """Whole rounds, one request at a time, one client.

    The workload's round count scales with `seconds`, so it is the same on
    every run and every commit; a run that passes 2.5 * `seconds` of wall
    time stops after its current round.
    """
    stream = rounds(workload, seed)
    batch = next(stream)
    run_set(cli, batch[:1])                                     # warm-up
    target = max(1, round(WORKLOADS[workload].rounds * seconds
                          / REFERENCE_SECONDS))
    requests, results, cals = [], [], [calibrate()]
    start = time.perf_counter()
    for count in range(1, target + 1):
        done, _ = run_set(cli, batch, cals=cals)
        requests += batch
        results += done
        if time.perf_counter() - start >= 2.5 * seconds:
            break
        batch = next(stream)
    return requests, results, count, cals, time.perf_counter() - start


def judge(requests, results):
    outcomes = [classify(req, res) for req, res in zip(requests, results)]
    counts = dict.fromkeys(OUTCOMES, 0)
    for outcome, _ in outcomes:
        counts[outcome] += 1
    failures = [(outcome, detail, req.argv)
                for req, (outcome, detail) in zip(requests, outcomes)
                if outcome in FAILURES]
    return counts, failures


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples above."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 11 if n > 10 else n - 1
    return ordered[index], 100.0 * (index + 1) / n


def repeat_share(requests) -> float:
    """Share of requests whose forcing degree or characteristic polynomial
    already appeared in an earlier request."""
    degrees, chars, repeats = set(), set(), 0
    for req in requests:
        degree = max((p for p, _ in req.powers), default=-1)
        char = req.coefficients
        repeats += (degree >= 0 and degree in degrees) or char in chars
        if degree >= 0:
            degrees.add(degree)
        chars.add(char)
    return repeats / len(requests)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_failures(failures) -> None:
    for outcome, detail, argv in failures:
        print(f"  FAIL {outcome}: {detail} :: {' '.join(argv[:-1])} "
              f"{argv[-1]!r}")


def end_to_end(cli, workload: str, seed: int, seconds: float) -> dict:
    setup, setup_raw = measure_setup()
    requests, results, count, cals, elapsed = closed_loop(cli, workload, seed,
                                                          seconds)
    counts, failures = judge(requests, results)
    raw = [r.seconds for r in results]
    latencies = scaled(raw, cals)
    n = len(results)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": metric(setup, "s"),
        "latency_p50_ms": metric(1000 * statistics.median(latencies), "ms"),
        "latency_tail_ms": metric(1000 * tail_s, "ms"),
        "throughput_rps": metric(n / sum(latencies), "1/s"),
        "pass_rate": metric((n - len(failures)) / n, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    unscaled = {"setup_s": setup_raw,
                "latency_p50_ms": 1000 * statistics.median(raw),
                "latency_tail_ms": 1000 * tail(raw)[0],
                "throughput_rps": n / elapsed}
    print(f"== {workload} seed {seed}: {n} requests in {elapsed:.2f} s, "
          f"{count} rounds, closed loop, 1 client; host speed "
          f"{NOMINAL_CAL_S / statistics.median(cals):.2f} of nominal")
    for name, entry in metrics.items():
        note = f"n={n}"
        if name == "latency_tail_ms":
            note = f"p{tail_pct:.1f}, n={n}, {min(10, n - 1)} above"
        elif name == "setup_s":
            note = (f"median of {SETUP_REPEATS} fresh interpreters, "
                    "interpreter start-up excluded")
        if name in unscaled:
            note += f"; unscaled {unscaled[name]:.4f}"
        print(f"  {name:<16} {entry['value']:>12.4f} {entry['unit']:<6} {note}")
    print("  outcomes: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    print(f"  repeat share (forcing degree or char poly): "
          f"{repeat_share(requests):.3f}")
    print_failures(failures)
    return {"correct": counts[WRONG_ANSWER] == 0, "attempted": n,
            "failed": len(failures), "metrics": metrics}


def per_layer(cli, workload: str, seed: int, seconds: float) -> dict:
    requests = trace_set(workload, seed)
    run_set(cli, requests[:1])                                  # warm-up
    plain_times, traced_times, tracers = [], [], []
    identical = True
    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < seconds:
        plain, plain_s = run_set(cli, requests)
        tracer = Tracer(wrapper_costs())    # measured at the pass's speed
        tracer.install()
        try:
            traced, traced_s = run_set(cli, requests, tracer)
        finally:
            tracer.uninstall()
        identical &= all(a.fingerprint() == b.fingerprint()
                         for a, b in zip(plain, traced))
        identical &= not tracers or tracer.counts() == tracers[0].counts()
        plain_times.append(plain_s)
        traced_times.append(traced_s)
        tracers.append(tracer)
    counts, failures = judge(requests, traced)

    def seconds_of(name):
        return statistics.median(t.inclusive[name] for t in tracers)

    first = tracers[0]
    total = seconds_of("cli.main")
    metrics = {
        "solver.transform_of_calls": metric(first.calls["solver.transform_of"], "count"),
        "solver.transform_of_s": metric(seconds_of("solver.transform_of"), "s"),
        "solver.recursion_s": metric(seconds_of("solver.recursion"), "s"),
        "solver.verify_solution_s": metric(seconds_of("solver.verify_solution"), "s"),
        "sequences.eval_calls": metric(first.calls["sequences.eval"], "count"),
        "sequences.eval_s": metric(seconds_of("sequences.eval"), "s"),
        "sequences.inverse_s": metric(seconds_of("sequences.inverse"), "s"),
        "exact.quadext_new": metric(first.calls["exact.quadext"], "count"),
        "exact.quadext_init_s": metric(seconds_of("exact.quadext"), "s"),
        "exact.radicand_max": metric(first.sizes["exact.radicand_max"], "int"),
        "transforms.n_power_calls": metric(first.calls["transforms.n_power"], "count"),
        "transforms.n_power_s": metric(seconds_of("transforms.n_power"), "s"),
        "polys.gcd_calls": metric(first.calls["polys.gcd"], "count"),
        "polys.gcd_s": metric(seconds_of("polys.gcd"), "s"),
        "polys.partial_fractions_s": metric(seconds_of("polys.partial_fractions"), "s"),
        "polys.factor_roots_s": metric(seconds_of("polys.factor_roots"), "s"),
        "polys.den_degree_max": metric(first.sizes["polys.den_degree_max"], "degree"),
        "polys.coeff_bits_max": metric(first.sizes["polys.coeff_bits_max"], "bits"),
        "polys.pf_terms": metric(first.sizes["polys.pf_terms"], "count"),
        "numeric.check_s": metric(seconds_of("numeric.check"), "s"),
        "numeric.growth_bound_s": metric(seconds_of("numeric.growth_bound"), "s"),
        "numeric.series_terms": metric(first.sizes["numeric.series_terms"], "count"),
        "dsl.parse_s": metric(seconds_of("dsl.parse"), "s"),
        "cli.render_s": metric(seconds_of("cli.render"), "s"),
    }
    for layer in LAYERS:
        share = statistics.median(t.self_time[layer] / t.inclusive["cli.main"]
                                  for t in tracers)
        metrics[f"{layer}.self_share"] = metric(share, "ratio")
    metrics["trace.overhead"] = metric(
        statistics.median(plain_times) / statistics.median(traced_times),
        "ratio")

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
    first.write_spans(span_file)
    print(f"== {workload} seed {seed} traced: {len(requests)} requests x "
          f"{len(tracers)} passes (untraced and traced), "
          f"{total:.2f} s traced per pass net of wrappers ("
          f"{1e6 * first.costs[False]:.2f} us a call, "
          f"{1e6 * first.costs[True]:.2f} us with a span), "
          f"{statistics.median(plain_times):.2f} s untraced; "
          f"spans in {span_file.name}")
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  traced output identical to untraced, counts repeat: {identical}")
    print("  outcomes: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    print_failures(failures)
    return {"correct": identical and counts[WRONG_ANSWER] == 0,
            "attempted": len(requests), "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = load_cli()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run = per_layer if args.trace else end_to_end
        print(json.dumps(run(cli, name, args.seed, args.seconds)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
