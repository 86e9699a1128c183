#!/usr/bin/env python3
"""plconvex benchmark: PLS text to Verdict, end to end and per module.

    python3 perfbench/run.py --workload prism --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there and nowhere else.  One process, one thread, a closed
loop: each instance is parsed (``parse_pls``) and verified (``verify``
with its default arguments) only after the previous one finished.

Workloads (see workloads.py) are seeded corpora of at least a hundred
instances, timed in whole rounds, in a seeded shuffled order, until
``--seconds`` have passed and at least three rounds ran.  The time
metrics use each instance's median time over the rounds.  Every verdict
is checked against an answer key built without the verifier
(reference.py); a disagreement counts as a failed operation and makes
``correct`` false.

Times are reported in reference seconds.  A fixed exact-arithmetic
probe (``probe``) runs between every two timed instances; each sample is
scaled by ``REFERENCE_PROBE_S`` over the mean of the probes on either
side of it.  On a shared host whose speed changes twofold within a
minute, this cancels the host's speed and keeps the program's.  The
unscaled figures are in the JSON summary on standard error.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds (tracer.py) and reports the per-layer
metrics per traced round; the spans are written to ``perfbench/out/``.
The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
from fractions import Fraction
from functools import partial
from itertools import repeat
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 5
MIN_ROUNDS = 3
WARMUP_CASES = 3
PROBE_TERMS = 120
# the probe's time that defines one reference second; about its time on
# an idle 2-vCPU KVM guest (Xeon family 6 model 143, Python 3.11)
REFERENCE_PROBE_S = 3e-4


def _import_package():
    """Import plconvex from this checkout's ``src/``; exit 2 when it is missing."""
    if not (SRC / "plconvex" / "__init__.py").is_file():
        print(f"error: no plconvex package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import plconvex

    if Path(plconvex.__file__).resolve().parent != SRC / "plconvex":
        print(f"error: imported plconvex from {plconvex.__file__}", file=sys.stderr)
        sys.exit(2)


_import_package()

import plconvex.formats as formats  # noqa: E402
import plconvex.verifier as verifier  # noqa: E402

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import BUILDERS  # noqa: E402

# workloads whose every instance must be convex, checked with the oracle at set-up
CONVEX_ONLY = {"prism", "high_degree", "highdim"}


def probe() -> float:
    """Seconds that a fixed sum of exact fractions takes: the machine's speed now."""
    t0 = perf_counter()
    total = Fraction(0)
    for k in range(1, PROBE_TERMS):
        total += Fraction(1, k)
    return perf_counter() - t0


def timed_calls(calls):
    """Time each call, with a probe on either side.

    Yields (result, seconds, reference seconds) per call.
    """
    before = probe()
    for call in calls:
        t0 = perf_counter()
        result = call()
        dt = perf_counter() - t0
        after = probe()
        yield result, dt, dt * REFERENCE_PROBE_S * 2 / (before + after)
        before = after


def parse_and_verify(text: str):
    return verifier.verify(formats.parse_pls(text))


def timed_round(cases, order):
    """Parse and verify each case in ``order``.

    Returns (index, seconds, reference seconds, verdict) per case.
    """
    calls = (partial(parse_and_verify, cases[i].text) for i in order)
    return [(i, dt, ref, verdict) for i, (verdict, dt, ref) in zip(order, timed_calls(calls))]


def loglog_slope(points) -> float:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def end_to_end(cases, expected, samples, setup_s, scaled=True) -> dict:
    # each instance's median time over the rounds
    per_case: dict[int, list[float]] = {}
    for i, dt, ref, _ in samples:
        per_case.setdefault(i, []).append(ref if scaled else dt)
    median = {i: statistics.median(ts) for i, ts in per_case.items()}
    times = list(median.values())
    by_size: dict[int, list[float]] = {}
    for i, dt in median.items():
        if expected[i] is not None and expected[i].kind == reference.CONVEX:
            by_size.setdefault(cases[i].incidences, []).append(dt)
    slope_points = [(size, statistics.median(ts)) for size, ts in sorted(by_size.items())]
    return {
        "verify_s.p50": (statistics.median(times), "s"),
        "verify_s.p90": (statistics.quantiles(times, n=10)[8], "s"),
        "incidences_per_s": (sum(cases[i].incidences for i in median) / sum(times), "1/s"),
        "cost_slope": (loglog_slope(slope_points), "log/log"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tr: tracing.Tracer, rounds: int, traced_s: float, untraced_s: float) -> dict:
    times, calls = tr.layer_totals()
    metrics = {}
    for layer in tracing.LAYERS:
        if layer != tracing.VERIFY:
            metrics[f"{layer}.s"] = (times[layer] / rounds, "s")
    metrics["poset.validate_poset.calls"] = (calls["poset.validate_poset"] / rounds, "count")
    metrics["surface.interior_point.calls"] = (calls["surface.interior_point"] / rounds, "count")
    metrics["surface.interior_point.reuse"] = (
        calls["surface.interior_point"] / max(1, len(tr.ip_faces)),
        "calls/face",
    )
    metrics["exactgeom.Eliminator.add.calls"] = (tr.counts["exactgeom.Eliminator.add"] / rounds, "count")
    metrics["fan.fan_is_convex.s_per_entry"] = (
        times["fan.fan_is_convex"] / max(1, tr.counts["fan.entries"]),
        "s/entry",
    )
    for code in tracing.FAN_REASONS:
        metrics[f"fan.reason.{code}"] = (tr.counts[f"fan.reason.{code}"] / rounds, "count")
    metrics["verifier.verify.s"] = (times["verify_inclusive"] / rounds, "s")
    metrics["verifier.stars_checked"] = (calls["poset.link_cycle"] / rounds, "count")
    metrics["verifier.entries_checked"] = (tr.counts["verifier.entries_checked"] / rounds, "count")
    metrics["trace.unattributed.s"] = (times[tracing.VERIFY] / rounds, "s")
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    return metrics


def answer_key(workload, cases):
    """Expected verdict per case, or None where the reference itself failed."""
    expected, setup_errors = [], []
    for case in cases:
        try:
            exp = reference.expected_verdict(case.geometry, case.incidences)
        except Exception as exc:  # any failure of the reference is a set-up error
            setup_errors.append(f"{case.label}: reference failed: {exc!r}")
            exp = None
        if exp is not None and workload in CONVEX_ONLY and exp.kind != reference.CONVEX:
            setup_errors.append(f"{case.label}: oracle says {exp.kind}, expected CONVEX")
        expected.append(exp)
    return expected, setup_errors


def run_workload(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    build = BUILDERS[workload]
    setup_times: list[tuple[float, float]] = []  # (seconds, reference seconds) per set-up

    def set_up():
        gc.collect()
        instances = iter(build(seed, small))
        built, dt, ref = [], 0.0, 0.0
        for case, case_dt, case_ref in timed_calls(repeat(partial(next, instances, None))):
            dt, ref = dt + case_dt, ref + case_ref
            if case is None:
                break
            built.append(case)
        setup_times.append((dt, ref))
        return built

    cases = set_up()
    t_key = perf_counter()
    expected, setup_errors = answer_key(workload, cases)
    t_key = perf_counter() - t_key
    for case in cases:
        case.geometry = None  # keep only the text in the heap while timing
    gc.collect()

    rng = random.Random(seed)
    min_rounds = 1 if small or trace else MIN_ROUNDS
    warm = sorted(range(len(cases)), key=lambda i: len(cases[i].text))[:WARMUP_CASES]
    timed_round(cases, warm)

    samples, rounds, traced_s, untraced_s = [], 0, 0.0, 0.0
    tr = tracing.Tracer() if trace else None
    start = perf_counter()
    # a traced run alternates untraced and traced rounds, so both see the
    # same machine state and their ratio is the tracing overhead
    while rounds < min_rounds or perf_counter() - start < seconds:
        batch = timed_round(cases, rng.sample(range(len(cases)), len(cases)))
        untraced_s += sum(ref for _, _, ref, _ in batch)
        samples.extend(batch)
        if tr is not None:
            tr.install()
            try:
                batch = timed_round(cases, rng.sample(range(len(cases)), len(cases)))
            finally:
                tr.uninstall()
            traced_s += sum(ref for _, _, ref, _ in batch)
            samples.extend(batch)
        rounds += 1
        if not trace and len(setup_times) < SETUP_REPEATS:
            set_up()  # repeats spread over the run see the same machine as the rounds
    while not trace and len(setup_times) < SETUP_REPEATS:
        set_up()

    failed = sum(1 for i, _, _, v in samples if expected[i] is None or not reference.agrees(v, expected[i]))
    kinds = {k: sum(1 for e in expected if e and e.kind == k) for k in (reference.CONVEX, reference.NOT_CONVEX, reference.INVALID)}
    info = {
        "workload": workload,
        "seed": seed,
        "instances": len(cases),
        "rounds": rounds,
        "samples": len(samples),
        "expected_kinds": kinds,
        "verdict_errors": failed,
        "setup_errors": setup_errors,
        "phase_s": {"setup": sum(dt for dt, _ in setup_times), "answer_key": t_key, "measure": perf_counter() - start},
    }
    if trace:
        metrics = per_layer(tr, rounds, traced_s, untraced_s)
        info["absent"] = tr.absent
        if not small:
            tr.write_spans(HERE / "out" / f"spans-{workload}-seed{seed}.csv.gz", info)
    else:
        setup_s = statistics.median(ref for _, ref in setup_times)
        metrics = end_to_end(cases, expected, samples, setup_s)
        unscaled = end_to_end(cases, expected, samples, statistics.median(dt for dt, _ in setup_times), scaled=False)
        info["unscaled"] = {name: value for name, (value, unit) in unscaled.items() if unit in ("s", "1/s")}
        # the probe's median time, from each sample's scale: how fast the host ran
        info["probe_s.p50"] = statistics.median(dt / ref * REFERENCE_PROBE_S for _, dt, ref, _ in samples if ref > 0)
    return {
        "correct": failed == 0 and not setup_errors,
        "attempted": len(samples),
        "failed": failed + len(setup_errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "info": info,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    info = result.pop("info")
    print(json.dumps(info, sort_keys=True), file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
