#!/usr/bin/env python3
"""Fleet serving benchmark: build the harness, run one workload, report.

Usage (from the repository root):
  python3 fleetbench/run.py --workload serve-steady --seed 1 --seconds 12 --trace 0

Builds the MUTE libraries and the harness into .bench_build/ (first run
only), runs the harness, checks its outputs, prints a readable summary and,
as the last line, one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. Exits non-zero on any failed check. See README.md here.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import metrics as m

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("serve-steady", "serve-lowlat", "churn-mixed")
HARNESS_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"fleetbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "sim" / "fleet.hpp").is_file():
        fail(f"no MUTE source tree at {ROOT}", 2)
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", str(BUILD), "--target", "fleetbench",
                    "-j", jobs])
    return BUILD / "fleetbench"


def run_build_step(cmd):
    # Build output goes to stderr: stdout's last line is the result.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False)
    if done.returncode != 0:
        fail(f"build step failed ({done.returncode}): {' '.join(cmd)}", 2)


def provenance(args, load_at_start):
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for top in ("src", "fleetbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    digest.update((ROOT / "CMakeLists.txt").read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": commit, "source_sha256": digest.hexdigest()[:16],
            "loadavg_start": [round(x, 2) for x in load_at_start]}


def end_to_end(raw):
    u = raw["untraced"]
    fs = raw["sample_rate"]
    blocks = u["block_s"]
    p95, _ = m.percentile(blocks, 0.95)
    judged, failed = m.judge_sessions(raw["sessions"])
    if judged == 0:
        raise ValueError("no tenant session reached a scored window")
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "devices_per_core": (
            u["device_samples"] / fs / u["wall_s"] / raw["lanes"],
            "devices/core"),
        "block_p50_ms": (statistics.median(blocks) * 1e3, "ms"),
        "block_p95_ms": (p95 * 1e3, "ms"),
        "cancellation_db": (m.cancellation_db(raw["sessions"]), "dB"),
        "tenant_pass_ratio": ((judged - failed) / judged, "share"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }, judged, failed


def per_layer(raw, notes):
    t, u = raw["traced"], raw["untraced"]
    fs, lanes = raw["sample_rate"], raw["lanes"]
    ledger = raw["ledger"]
    weights = [n / t["device_samples"] for n in t["profile_samples"]]
    cpu = t["cpu_user_s"] + t["cpu_sys_s"]

    def per_sample_ns(key):
        return m.weighted(ledger, weights,
                          lambda e: e[key] / e["span_samples"] * 1e9)

    replay_ns = per_sample_ns("replay_s")

    def parts(e):
        # Per-sample layer costs, plus construction and calibration
        # amortized over the span when the span includes them.
        span = e["span_samples"]
        once_ms = (e["construct_ms"] if e["construct_in_span"] else 0.0) + \
            (e["calibration_ms"] if e["calibration_in_span"] else 0.0)
        return [e[k] / span * 1e9 for k in (
            "selection_s", "monitor_s", "lanc_s", "shadow_s", "fir_s")] + \
            [once_ms * 1e6 / span]

    unaccounted = m.weighted(
        ledger, weights,
        lambda e: m.unaccounted_share(e["replay_s"] / e["span_samples"] * 1e9,
                                      parts(e)))
    control = [b for b, c in zip(t["block_s"], t["control"]) if c]
    plain = [b for b, c in zip(t["block_s"], t["control"]) if not c]
    if control:
        control_ms = (statistics.median(control) -
                      statistics.median(plain)) * 1e3
    else:
        control_ms = 0.0
        notes.append("sim.control_block_ms is 0: no admit or drain in the "
                     "timed region of this workload")
    if raw["rf_chain_s"] == 0.0:
        notes.append("rf.chain_s is 0: no profile of this workload uses RF")
    if all(e["shadow_s"] == 0.0 for e in ledger):
        notes.append("core.shadow_ns is 0: every profile has one relay")
    rounds = [e for e in ledger if e["rounds"] > 0]
    round_w = sum(weights[e["profile"]] for e in rounds)
    p95, _ = m.percentile(t["block_s"], 0.95)
    period_s = raw["block_samples"] / fs
    dpc_traced = t["device_samples"] / fs / t["wall_s"] / lanes
    dpc_untraced = u["device_samples"] / fs / u["wall_s"] / lanes
    arena = [(x, mb * 1024.0) for x, mb in t["arena_samples"]]
    return {
        "sim.lane_idle_share": (m.lane_idle_share(cpu, t["wall_s"], lanes),
                                "share"),
        "sim.fleet_overhead_ns": (cpu * 1e9 / t["device_samples"] - replay_ns,
                                  "ns"),
        "sim.control_block_ms": (control_ms, "ms"),
        "sim.profile_build_s": (statistics.fmean(raw["profile_build_s"]), "s"),
        "rf.chain_s": (raw["rf_chain_s"], "s"),
        "sim.heap_allocs": (t["heap_allocs"], "count"),
        "sim.slow_block_share": (m.slow_share(t["block_s"]), "share"),
        "sim.p95_period_ratio": (p95 / period_s, "ratio"),
        "core.tick_ns": (per_sample_ns("tick_s"), "ns"),
        "core.selection_ms_per_round": (
            m.weighted(rounds, weights,
                       lambda e: e["round_s"] / e["rounds"] * 1e3) / round_w
            if rounds else 0.0, "ms"),
        "core.selection_ns": (per_sample_ns("selection_s"), "ns"),
        "core.lanc_ns": (per_sample_ns("lanc_s"), "ns"),
        "core.link_monitor_ns": (per_sample_ns("monitor_s"), "ns"),
        "core.shadow_ns": (per_sample_ns("shadow_s"), "ns"),
        "core.device_construct_ms": (
            m.weighted(ledger, weights, lambda e: e["construct_ms"]), "ms"),
        "core.calibration_ms": (
            m.weighted(ledger, weights, lambda e: e["calibration_ms"]), "ms"),
        "core.holds": (sum(s["holds"] for s in raw["sessions"]), "count"),
        "core.handoffs": (sum(s["handoffs"] for s in raw["sessions"]),
                          "count"),
        "dsp.plant_fir_ns": (per_sample_ns("fir_s"), "ns"),
        "common.arena_hw_mb": (
            max(s["arena_high_water"] for s in raw["sessions"]) / 1048576.0,
            "MB"),
        "common.arena_growth_kb_per_s": (m.slope(arena), "KB/s"),
        "proc.minor_faults": (t["minflt"], "count"),
        "proc.sys_share": (t["cpu_sys_s"] / cpu, "share"),
        "trace.overhead_share": (1.0 - dpc_traced / dpc_untraced, "share"),
        "ledger.replay_ns": (replay_ns, "ns"),
        "ledger.unaccounted_share": (unaccounted, "share"),
    }


def guards(raw, pass_name):
    """Lockstep and overload guard lines for a timed pass."""
    blocks = raw[pass_name]["block_s"]
    p95, tail = m.percentile(blocks, 0.95)
    period_ms = raw["block_samples"] / raw["sample_rate"] * 1e3
    lines = [
        f"blocks: {len(blocks)} timed, {tail} beyond p95; "
        f"{m.slow_share(blocks):.4f} slower than 2x p50 "
        f"(lockstep guard: under 0.01 expected on serve workloads)",
        f"p95 {p95 * 1e3:.3f} ms against a {period_ms:.1f} ms block period",
    ]
    if p95 * 1e3 > period_ms:
        lines.append(f"OVERLOAD: {raw['workload']} p95 exceeds its block "
                     f"period; the fleet cannot serve this load in real time")
    return lines


def main():
    load_at_start = os.getloadavg()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in (0, 60]", 2)

    exe = build()
    try:
        done = subprocess.run(
            [str(exe), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=HARNESS_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"harness exited with {done.returncode}")
    raw = json.loads(done.stdout.strip().splitlines()[-1])

    prov = provenance(args, load_at_start)
    prov.update({k: raw[k] for k in (
        "build_type", "lanes", "pinned_cpus", "nproc", "tenants",
        "block_samples", "timed_blocks", "warmup_blocks", "arena_mb")})
    print("provenance " + json.dumps(prov, sort_keys=True))

    e2e, judged, failed = end_to_end(raw)
    notes = []
    if args.trace:
        report = per_layer(raw, notes)
        pass_name = "traced"
    else:
        report = e2e
        pass_name = "untraced"
    for line in guards(raw, pass_name) + notes:
        print(line)

    problems = []
    if not raw["replay_identical"]:
        problems.append("single-thread replay differs from the fleet output")
    heap = sum(raw[p]["heap_allocs"] for p in ("untraced", "traced")
               if p in raw)
    if raw["heap_tracked"] and heap != 0:
        problems.append(f"{heap} worker-lane heap allocations in the timed "
                        f"region (steady_allocations must stay 0)")
    for name, (value, _) in report.items():
        if not math.isfinite(value):
            fail(f"metric {name} is not finite ({value})")
    if args.trace:
        share = report["ledger.unaccounted_share"][0]
        verdict = "closes" if abs(share) <= m.LEDGER_TOLERANCE else "OPEN"
        print(f"ledger {verdict}: {share:+.3f} of the replay loop unaccounted "
              f"(tolerance {m.LEDGER_TOLERANCE})")
    for name, (value, unit) in report.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    print(json.dumps({
        "correct": not problems,
        "attempted": judged,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.items()},
    }))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    try:
        main()
    except (ValueError, KeyError, TypeError) as err:
        # TypeError: the harness wrote null for a non-finite measurement.
        fail(f"bad measurement: {err}")
