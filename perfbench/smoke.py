#!/usr/bin/env python3
"""Small-size smoke run of every benchmark workload, untraced and traced.

    python3 perfbench/smoke.py

Prints every metric by name with its unit.  Checks, for each workload,
that every metric BENCHMARK.json names is emitted with its unit, that
no verdict disagrees with the answer key, and that in the traced run
the layers' self times plus ``trace.unattributed.s`` add up to
``verifier.verify.s``.  Exits 1 on the first failed check.  Takes well
under a minute.
"""

from __future__ import annotations

import json
import math
import sys

import run

SELF_TIME_EXCLUDED = {"formats.parse_pls.s", "verifier.verify.s"}


def check(ok: bool, message: str) -> None:
    if not ok:
        print(f"FAIL {message}")
        sys.exit(1)


def main() -> int:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run.run_workload(workload, seed=1, seconds=0, trace=bool(trace), small=True)
            where = f"{workload} trace={trace}"
            info = result["info"]
            check(info["verdict_errors"] == 0, f"{where}: verdict_errors = {info['verdict_errors']}")
            check(result["correct"] and result["failed"] == 0, f"{where}: {info['setup_errors']}")
            metrics = result["metrics"]
            names = {m["name"] for m in wanted[trace]}
            check(set(metrics) == names, f"{where}: metrics differ by {sorted(set(metrics) ^ names)}")
            for m in wanted[trace]:
                got = metrics[m["name"]]
                check(got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']} != {m['unit']}")
                check(math.isfinite(got["value"]), f"{where}: {m['name']} = {got['value']}")
            if trace:
                parts = sum(
                    v["value"]
                    for k, v in metrics.items()
                    if k.endswith(".s") and k not in SELF_TIME_EXCLUDED
                )
                total = metrics["verifier.verify.s"]["value"]
                check(math.isclose(parts, total, rel_tol=1e-9), f"{where}: self times {parts} != verify {total}")
            print(f"ok {where}: {result['attempted']} verdicts, 0 verdict errors")
            for name, m in metrics.items():
                print(f"   {name:40s} {m['value']:.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
