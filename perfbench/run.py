#!/usr/bin/env python3
"""The benchmark command: builds perfbench and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The workloads:

* campaign_sim      -- a monitored fault-injection campaign (static n=8,
                       original and full fix, loss x burst x partition)
                       on the hb-sim simulator;
* campaign_loopback -- the same plans on the hb-net loopback backend;
* udp_cluster       -- live detectors on localhost UDP sockets, crashed
                       and restarted on a 1 ms wall clock;
* mck_packed        -- full-fix cells on the sym+por+packed checker stack;
* mck_hashed        -- the unreduced hashed checker.

Every workload reports the same end-to-end metrics: setup_s (time before
the timed region), rate_per_s (its own unit of work per second: beats
per wall second on the campaigns, beats per CPU second of the polling
thread on UDP, states per second on the checkers) and peak_mb (peak
resident set). The campaigns and checkers repeat passes over fixed work
and read their rate off the fastest pass (the checkers: off each ~10 ms
window's fastest run), and scale rate and set-up time by the host's
speed in the run, measured by a reference kernel between passes
(host_factor; see HostSpeed in perfbench/src/stats.rs): this shared host
alternates between spells up to 1.8x apart that can outlast a run.
The figures named after one workload (sim_beats_per_s,
udp_detect_ms_p50, verify_packed_pass_s, ...) are printed above the
result; verify_packed_s and verify_hashed_s, which check every cell of a
stack to its verdict, come with the traced run.

With --trace 1 the workload runs twice, untraced and then traced, and
the last line holds the per-layer metrics, the tracing overhead of every
end-to-end metric and the closure residue: the share of the untraced
time for the traced run's work that the layer spans leave unexplained.
Layers a workload does not exercise read 0.

The last line is one JSON object with the keys correct, attempted,
failed and metrics. The command exits non-zero without that line when
the program cannot be built or run, and non-zero with correct=false
when an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ["campaign_sim", "campaign_loopback", "udp_cluster", "mck_packed", "mck_hashed"]

# A run, both passes of --trace 1 included, is cut off after this long.
RUN_BUDGET_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    r = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        return None
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    return exe if os.path.isfile(exe) else None


def run_workload(exe, a, trace, deadline):
    args = [exe, a.workload, "--seed", str(a.seed), "--seconds", repr(a.seconds),
            "--trace", str(trace)]
    left = deadline - time.monotonic()
    if left <= 0:
        raise RuntimeError("run budget exhausted")
    r = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, timeout=left)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d" % (a.workload, r.returncode))
    out = json.loads(lines[-1])
    out["units"] = {k: v["unit"] for k, v in out["metrics"].items()}
    out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()
    if a.seconds <= 0:
        ap.error("--seconds must be positive")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]

    exe = build()
    if exe is None:
        log("perfbench: build failed")
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        plain = run_workload(exe, a, 0, deadline)
        traced = run_workload(exe, a, 1, deadline) if a.trace else None
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 3

    runs = [plain] + ([traced] if traced else [])
    attempted = sum(o["attempted"] for o in runs)
    failed = sum(o["failed"] for o in runs)
    errors = [e for o in runs for e in o["errors"]]
    notes = [n for o in runs for n in o["notes"]]
    pm = plain["metrics"]
    for name, _ in e2e:
        if not pm.get(name, 0) > 0:
            errors.append("metric %s missing or not positive" % name)
            pm[name] = 0.0

    if a.trace:
        tm = traced["metrics"]
        values = {}
        for name, _ in e2e:
            base = pm[name]
            values["trace_overhead.%s_pct" % name] = (
                100.0 * (tm.get(name, 0.0) - base) / base if base else 0.0)
        try:
            # The untraced time the traced run's work would have taken,
            # against the time its spans explain.
            want = tm["raw.work"] * pm["raw.time_ns"] / pm["raw.work"]
            values["closure.residue_pct"] = 100.0 * (want - tm["raw.explained_ns"]) / want
        except (KeyError, ZeroDivisionError) as e:
            errors.append("closure inputs missing: %r" % e)
        result = {n: {"value": values.get(n, tm.get(n, 0.0)), "unit": u} for n, u in layers}
    else:
        result = {n: {"value": pm[n], "unit": u} for n, u in e2e}

    for n in notes:
        print("  " + n)
    print("workload %s: %d/%d operations failed" % (a.workload, failed, attempted))
    listed = {n for n, _ in e2e + layers}
    for o in runs:
        for k, v in o["metrics"].items():
            if not k.startswith("raw.") and k not in listed:
                listed.add(k)
                print("  %-40s %16.6g %s" % (k, v, o["units"][k]))
    for k, v in result.items():
        print("  %-40s %16.6g %s" % (k, v["value"], v["unit"]))
    for e in errors:
        print("  check failed: " + e)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
