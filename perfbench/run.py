#!/usr/bin/env python3
"""fsim campaign benchmark: build fsim_perfbench, run one workload, report.

    python3 perfbench/run.py --workload batch3-full|msg3-pool|adaptive-ci05
                             --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, then runs fsim_perfbench for the workload.
With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer ones, by the names and units BENCHMARK.json gives. The campaign
seed is --seed when perfbench/digests.json has a record for it, and
otherwise the (seed mod K)-th of the K recorded seeds of (size, workload)
in numeric order, so any --seed picks a grid whose outcomes are known.
Every whole-campaign call is checked against the outcome digests recorded
for that campaign seed. The last line of stdout is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("batch3-full", "msg3-pool", "adaptive-ci05")
APPS = ("wavetoy", "minimd", "atmo")
RUN_CLASSES = ("pruned", "simulated", "message")

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then (re)build only fsim_perfbench and its libraries."""
    env = dict(os.environ, TMPDIR=str(build_dir / "tmp"))
    (build_dir / "tmp").mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir), *gen],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "fsim_perfbench", "-j", jobs],
                   stdout=sys.stderr, env=env, check=True)
    return build_dir / "fsim_perfbench"


def campaign_seed(recorded, seed):
    """The recorded campaign seed that `seed` selects (None: no records)."""
    if str(seed) in recorded:
        return seed
    keys = sorted(int(k) for k in recorded)
    return keys[seed % len(keys)] if keys else None


def percentile(values, q):
    """Linear-interpolated q-th percentile (0 for no samples)."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def check_executions(doc, want):
    """Count failed grid points: errors, missing points, and every point of
    a call whose digests differ from the recorded ones `want`."""
    attempted = failed = 0
    problems = []
    for ex in doc["executions"]:
        attempted += ex["attempted"]
        bad = ex["attempted"] - ex["completed"]
        if ex["error"]:
            problems.append(f"{ex['mode']} call failed: {ex['error']}")
            bad = ex["attempted"]
        else:
            for key, value in want.items():
                if ex[key] != value:
                    problems.append(f"{ex['mode']} call: {key} {ex[key]} "
                                    f"!= expected {value}")
                    bad = ex["attempted"]
        failed += bad
    return attempted, failed, problems


def self_times(spans):
    """Per span name: (count, total ms, self ms), where self time is the
    span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        covered, cursor = 0, s["start_ns"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, cursor), min(b, s["end_ns"])
            if b > a:
                covered += b - a
                cursor = b
        dur = s["end_ns"] - s["start_ns"]
        row = table[s["name"]]
        row[0] += 1
        row[1] += dur / 1e6
        row[2] += (dur - covered) / 1e6
    return table


def per_layer(doc, setup_s):
    """Per-layer metrics from the probes and the span file of a traced run."""
    m = dict(doc["probes"])
    m["bench.peak_rss_mb"] = doc["peak_rss_kb"] / 1024.0
    spans = [json.loads(line) for line in
             Path(doc["spans_file"]).read_text().splitlines()]
    serial = {s["id"]: s for s in spans if s["name"] == "exec.serial"}
    calls = defaultdict(list)  # serial call id -> its run spans
    for s in spans:
        if s["name"] == "core.run" and s["parent"] in serial:
            calls[s["parent"]].append(s)

    def run_class(s):
        if s["region"] == "message":
            return "message"
        return "pruned" if s["pruned"] else "simulated"

    def ms(s):
        return (s["end_ns"] - s["start_ns"]) / 1e6

    # Timings pool every serial call. Untimed spans (the first of a call or
    # of an adaptive wave) also cover the call's setup or the wave barrier,
    # and are left out.
    timed = [s for runs in calls.values() for s in runs if s["timed"]]
    for c in RUN_CLASSES:
        durations = [ms(s) for s in timed if run_class(s) == c]
        m[f"core.run_ms.{c}.p50"] = percentile(durations, 50)
        m[f"core.run_ms.{c}.p99"] = percentile(durations, 99)
    exec_ms = sum(ms(serial[c]) - sum(ms(s) for s in runs if not s["timed"])
                  for c, runs in calls.items())
    m["core.pruned_time_frac"] = sum(
        ms(s) for s in timed if s["pruned"]) / exec_ms

    # Exact counts come from the first serial call alone.
    runs = calls[min(calls)]
    sim_instr = sum(s["instr"] for s in runs)
    m["core.sim_instr"] = sim_instr
    m["core.pruned_frac"] = sum(s["pruned"] for s in runs) / len(runs)
    m["core.prefix_instr_frac"] = sum(
        s["injected_at"] for s in runs if s["region"] != "message") / sim_instr

    def exec_s(mode):
        return statistics.median(ex["seconds"] for ex in doc["executions"]
                                 if ex["mode"] == mode) - setup_s

    # Busy share of the pool in the traced calls at the workload's job
    # count: their own run spans, per worker, against their execution time.
    # Untimed spans also cover idle time, so they count at the timed mean.
    pooled = {s["id"]: s for s in spans if s["name"] == "exec.traced"}
    busy = []
    for call_id, call in pooled.items():
        runs = [s for s in spans
                if s["name"] == "core.run" and s["parent"] == call_id]
        mean_ms = statistics.fmean(ms(s) for s in runs if s["timed"])
        busy.append(mean_ms * len(runs) /
                    (doc["jobs"] * (ms(call) - 1e3 * setup_s)))
    m["core.pool_busy_frac"] = statistics.median(busy)
    untraced, traced = exec_s("untraced"), exec_s("traced")
    m["bench.trace_overhead_frac"] = traced / untraced - 1.0

    lines = [f"trace: {len(spans)} spans in {doc['spans_file']}",
             f"{'layer span':<22}{'count':>7}{'total ms':>12}{'self ms':>12}"]
    for name, (n, total, own) in sorted(self_times(spans).items()):
        lines.append(f"{name:<22}{n:>7}{total:>12.1f}{own:>12.1f}")
    lines.append(f"run spans over {len(calls)} serial calls (timed): " +
                 ", ".join(f"{c} {sum(run_class(s) == c for s in timed)}"
                           for c in RUN_CLASSES))
    lines += gap_report(m, timed)
    return m, lines


def gap_report(m, timed):
    """Serial run time against the outside-in probes: the share the
    fault-free engine speed accounts for, and the time left per run beside
    it next to the probed World build + teardown."""
    total_ms = sum((s["end_ns"] - s["start_ns"]) / 1e6 for s in timed)
    if not timed or total_ms <= 0:
        return []
    total_instr = sum(s["instr"] for s in timed)
    build_ms = engine_ms = 0.0
    for a in APPS:
        mine = [s for s in timed if s["app"] == a]
        build_ms += len(mine) * m[f"simmpi.world_build_ms.{a}"]
        engine_ms += sum(s["instr"] for s in mine) / (
            m[f"svm.engine_minstr_per_s.{a}"] * 1e3)
    n = len(timed)
    return [
        f"serial runs {total_instr / total_ms / 1e3:.1f} Minstr/s vs "
        f"fault-free engine {total_instr / engine_ms / 1e3:.1f} Minstr/s "
        f"({total_ms / engine_ms:.2f}x) over {n} runs",
        f"  time beside the engine {(total_ms - engine_ms) / n:.2f} ms/run; "
        f"probed World build+teardown {build_ms / n:.2f} ms/run"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--digests", type=Path, default=DIGESTS,
                    help="recorded digests to check against")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"fsim sources not found under {ROOT / 'src'}")
        return 2
    out_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out_root.is_absolute():
        out_root = ROOT / out_root
    binary = build(out_root / "perfbench")

    recorded = json.loads(args.digests.read_text()).get(args.size, {}).get(
        args.workload, {})
    seed = campaign_seed(recorded, args.seed)
    if seed is None:
        log(f"no recorded digests for {args.size} {args.workload}")
        return 1
    want = recorded[str(seed)]

    proc = subprocess.run(
        [str(binary), f"--workload={args.workload}", f"--seed={seed}",
         f"--seconds={args.seconds}", f"--trace={args.trace}",
         f"--size={args.size}", f"--work={out_root / 'perfbench-work'}"],
        stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        log(f"fsim_perfbench exited with {proc.returncode}")
        return 1
    doc = json.loads(proc.stdout)
    attempted, failed, problems = check_executions(doc, want)

    setup_s = statistics.median(doc["setup_s"])
    lines = [f"workload {args.workload} (seed {args.seed}, campaign seed "
             f"{seed}, size {args.size}, jobs {doc['jobs']}, trace "
             f"{args.trace}): {len(doc['executions'])} calls, digest check "
             f"against recorded digests"]
    if args.trace:
        values, more = per_layer(doc, setup_s)
        lines += more
    else:
        untraced = [ex for ex in doc["executions"] if ex["mode"] == "untraced"]
        wall_s = statistics.median(ex["seconds"] for ex in untraced)
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "runs_per_s": untraced[0]["completed"] / (wall_s - setup_s),
        }
        lines.append(f"setup samples {len(doc['setup_s'])}, call samples "
                     f"{len(untraced)}, grid points per call "
                     f"{untraced[0]['completed']}")
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    lines.append(f"failed_frac {failed / max(attempted, 1):.6f} "
                 f"({failed} of {attempted} grid points)")
    lines += [f"  problem: {p}" for p in problems]
    lines += [f"{name:<36}{values[name]:>16.6g} {unit}"
              for name, unit in units.items()]
    print("\n".join(lines))
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
