#!/usr/bin/env python3
"""Smoke test of the campaign benchmark, at a tiny size.

    python3 perfbench/smoke_test.py

For every workload, untraced and traced, it asserts that run.py prints
every metric BENCHMARK.json names, with its unit, that the digest check ran
against recorded digests and passed, and that nothing failed. It also
asserts that the exact per-layer counts repeat bit for bit between two
traced runs, that a seed with no record of its own runs the recorded
campaign seed it folds onto, that a wrong recorded digest fails the check,
and that run.py fails without printing a result when the fsim sources are
not beside it. Exits non-zero on the first failure.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("core.sim_instr", "core.pruned_frac", "core.prefix_instr_frac",
         "simmpi.golden_rx_bytes")


def run(workload, trace, cwd=ROOT, script=ROOT / "perfbench" / "run.py",
        seed=1, extra=()):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny",
         *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600)


def check(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)


def result_of(workload, trace):
    proc = run(workload, trace)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and lines,
          f"{workload} trace={trace} exited {proc.returncode}")
    check("digest check against recorded digests" in lines[0],
          f"{workload} trace={trace}: no recorded tiny digests for seed 1")
    res = json.loads(lines[-1])
    check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
          f"{workload} trace={trace}: result keys {sorted(res)}")
    check(res["correct"] is True and res["failed"] == 0
          and res["attempted"] >= 1,
          f"{workload} trace={trace}: correct={res['correct']} "
          f"failed={res['failed']} attempted={res['attempted']}")
    want = SPEC["per_layer" if trace else "end_to_end"]
    check(sorted(res["metrics"]) == sorted(m["name"] for m in want),
          f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
    for m in want:
        got = res["metrics"][m["name"]]
        check(got["unit"] == m["unit"],
              f"{workload}: {m['name']} unit {got['unit']} != {m['unit']}")
        check(isinstance(got["value"], (int, float))
              and math.isfinite(got["value"]),
              f"{workload}: {m['name']} value {got['value']!r}")
    return res


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            res = result_of(workload, trace)
            print(f"ok  {workload} trace={trace}: {len(res['metrics'])} "
                  f"metrics, {res['attempted']} grid points checked")

    first = result_of("batch3-full", 1)["metrics"]
    again = result_of("batch3-full", 1)["metrics"]
    for name in EXACT:
        check(first[name]["value"] == again[name]["value"],
              f"{name} differs between runs: {first[name]['value']} vs "
              f"{again[name]['value']}")
    print("ok  exact counts repeat bit for bit: " + ", ".join(EXACT))

    proc = run("msg3-pool", 0, seed=2)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and lines and "campaign seed 1," in lines[0]
          and json.loads(lines[-1])["correct"] is True,
          "seed 2 must run the recorded tiny campaign seed 1 and pass")
    print("ok  a seed with no record of its own folds onto a recorded one")

    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    digests["tiny"]["msg3-pool"]["1"]["outcome_digest"] = "1"
    wrong = ROOT / ".bench_build" / "smoke-wrong-digests.json"
    wrong.parent.mkdir(parents=True, exist_ok=True)
    wrong.write_text(json.dumps(digests))
    proc = run("msg3-pool", 0, extra=("--digests", str(wrong)))
    wrong.unlink()
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode != 0 and lines
          and json.loads(lines[-1])["correct"] is False,
          "a wrong recorded digest must fail the check")
    print("ok  a wrong recorded digest fails the check")

    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("batch3-full", 0, cwd=bare,
               script=bare / "perfbench" / "run.py")
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py without the fsim sources must fail without a result")
    print("ok  fails without a result when the sources are missing")


if __name__ == "__main__":
    main()
