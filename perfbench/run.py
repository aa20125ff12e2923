#!/usr/bin/env python3
"""The natoms repo benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload compile_sweep --seed 1 --seconds 30 --trace 0

It builds the release `natoms` binary and the in-process replay
(`perfbench/replay`) from source into `$CARGO_TARGET_DIR` (default
`.bench_build`), then:

* `--trace 0` times the workload end to end the way a user runs it:
  `natoms` subprocesses writing JSONL, tracing off, repeated for
  `--seconds` seconds. It reports the medians of the end-to-end metrics
  named in BENCHMARK.json, with timings quoted at calibrated host speed.
* `--trace 1` runs the workload once through the CLI at `--workers 2`
  and `--workers 1`, then replays the same inputs in process under the
  benchmark's own spans (`perfbench-replay`). It reports the per-layer
  metrics named in BENCHMARK.json.

Both modes check the outputs (exit codes, JSONL rows, row counts, and
results that must repeat exactly); see perfbench/README.md. The last
line of stdout is `{"correct", "attempted", "failed", "metrics"}`; a
failed check prints `"correct": false` and exits 1. Without the repo's
sources next to it, the build fails and the script exits 2 without a
result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2
PAPER_MIDS = "1,2,3,4,5,8,13"
WORKLOADS = {
    # The Fig. 3 grid: 5 benchmarks x 10 sizes x 7 MIDs, 2-qubit lowering.
    "compile_sweep": {
        "kind": "sweep",
        "benchmarks": ["bv", "cnu", "cuccaro", "qft-adder", "qaoa"],
        "sizes": list(range(10, 101, 10)),
        "mids": PAPER_MIDS,
    },
    # Fig. 12/13: software coping with atom loss, sharded across the pool.
    "loss_campaign": {
        "kind": "campaign",
        "benchmark": "cuccaro",
        "size": 40,
        "mid": 4,
        "strategy": "c-small-reroute",
        "error": "1e-3",
        "shots": 50_000,
        "shards": 2,
    },
    # The same program and device, recompiling on every interfering loss.
    "recompile_campaign": {
        "kind": "campaign",
        "benchmark": "cuccaro",
        "size": 40,
        "mid": 4,
        "strategy": "recompile",
        "error": "1e-3",
        "shots": 4_000,
        "shards": 1,
    },
}
MIN_PASSES = 10
# Wall time of `perfbench-replay calibrate` on the host speed the
# end-to-end timings are quoted at (see end_to_end).
CALIBRATION_S = 0.2
SETUP_REPS = 21
STARTUP_REPS = 21
CALL_TIMEOUT_S = 150
# Row fields that carry wall-clock measurements when telemetry is on
# (campaign ledgers also measure `recompile_time`).
TIMING_FIELDS = ("timings", "pass_report", "shard_timings")
# Work counters the serial traced replay and the parallel engine pass
# must agree on exactly. Artifact-store hits are left out: at 2 workers
# two MIDs of one point may both miss before either deposits.
SHARED_COUNTERS = ("compiles", "ops_scheduled", "remaps", "fixups", "fixup_bfs_expansions", "recompiles")


class Run:
    """Processes spawned by one benchmark run, and every failed check."""

    def __init__(self, tmp):
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, problem):
        if not ok:
            self.problems.append(problem)
        return ok

    def spawn(self, argv):
        """Runs `argv` to completion; returns (wall seconds, peak RSS KiB)."""
        self.attempted += 1
        log = self.tmp / "stderr.log"
        with open(log, "ab") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if not self.check(proc.returncode == 0, f"exit {proc.returncode}: {' '.join(argv[1:])}"):
            self.failed += 1
        return wall, usage.ru_maxrss

    def rows(self, path, expected):
        """The JSONL rows of one call: all must parse, none may fail."""
        try:
            rows = [json.loads(line) for line in path.read_text().splitlines()]
        except (OSError, ValueError) as e:
            self.check(False, f"{path.name}: unreadable JSONL ({e})")
            return []
        self.check(len(rows) == expected, f"{path.name}: {len(rows)} rows, expected {expected}")
        bad = sum(1 for r in rows if "Failed" in r.get("outcome", {}))
        self.failed += bad
        self.check(bad == 0, f"{path.name}: {bad} failed rows")
        return rows


def cli_calls(w, natoms, seed, workers, out, setup=False):
    """The `natoms` invocations of one pass: (argv, jsonl path, rows)."""
    common = ["--workers", str(workers), "--seed", str(seed), "--jsonl"]
    if w["kind"] == "sweep":
        if setup:
            # One trivial point: process start, engine spin-up, JSONL.
            points, mids = [("bv", 4)], "1"
        else:
            points = [(b, s) for b in w["benchmarks"] for s in w["sizes"]]
            mids = w["mids"]
        calls = []
        for i, (b, s) in enumerate(points):
            path = out / f"cli-{i}.jsonl"
            argv = [natoms, "sweep", "--benchmark", b, "--size", str(s), "--mids", mids,
                    "--no-native", *common, str(path)]
            calls.append((argv, path, len(mids.split(","))))
        return calls
    path = out / "cli-0.jsonl"
    shots = 0 if setup else w["shots"]
    argv = [natoms, "campaign", "--benchmark", w["benchmark"], "--size", str(w["size"]),
            "--mid", str(w["mid"]), "--strategy", w["strategy"], "--error", w["error"],
            "--shots", str(shots), "--streaming", "--shards", str(w["shards"]), *common, str(path)]
    return [(argv, path, 1)]


def units(w):
    """Work units of one pass: compiles, or shots."""
    if w["kind"] == "sweep":
        return len(w["benchmarks"]) * len(w["sizes"]) * len(w["mids"].split(","))
    return w["shots"]


def campaign_det(c):
    """The exactly repeatable part of a campaign result."""
    ledger = c["ledger"]
    det = {k: c[k] for k in ("shots_attempted", "shots_successful", "discarded_by_loss",
                             "failed_by_noise", "streaks")}
    det.update({k: ledger[k] for k in ("reloads", "fluorescences", "remaps", "fixups", "recompiles")})
    return det


def det_of_rows(rows):
    """Deterministic results of CLI or engine JSONL rows."""
    out = []
    for r in rows:
        o = r["outcome"]
        if "Compiled" in o:
            out.append([r["benchmark"], r["size"], r["mid"], o["Compiled"]["metrics"]])
        elif "Campaign" in o:
            out.append(campaign_det(o["Campaign"]))
    return out


def det_of_replay(kind, result):
    if kind == "sweep":
        return [[r["benchmark"], r["size"], r["mid"], r["metrics"]] for r in result]
    return [campaign_det(result)]


def quality(kind, det):
    """The paper's figures of merit for one pass's deterministic results."""
    if kind == "sweep":
        return {
            "result.swaps_total": sum(r[3]["swaps"] for r in det),
            "result.depth_total": sum(r[3]["depth"] for r in det),
        }
    c = det[0]
    streaks = c["streaks"]
    completed = streaks["completed"]
    per_reload = completed["mean"] if completed["count"] > 0 else float(streaks["open"] or 0)
    return {
        "result.shots_per_reload": per_reload,
        "result.success_frac": c["shots_successful"] / max(c["shots_attempted"], 1),
    }


def cli_pass(run, w, natoms, seed, workers, out):
    """One pass of the workload through the CLI: (wall per call, peak RSS KiB, rows, det)."""
    out.mkdir(parents=True, exist_ok=True)
    calls = cli_calls(w, natoms, seed, workers, out)
    walls, rss = [], 0
    for argv, _, _ in calls:
        wall, peak = run.spawn(argv)
        walls.append(wall)
        rss = max(rss, peak)
    rows = [r for _, path, n in calls for r in run.rows(path, n)]
    return walls, rss, rows, det_of_rows(rows)


def setup_time(run, w, natoms, seed, out):
    """One set-up: the workload's fixed per-call cost with zero units."""
    out.mkdir(parents=True, exist_ok=True)
    (argv, path, n), = cli_calls(w, natoms, seed, WORKERS, out, setup=True)
    wall, _ = run.spawn(argv)
    run.rows(path, n)
    return wall


def end_to_end(run, w, natoms, replay, seed, seconds):
    setups, calibrations, passes, peaks, first = [], [], [], [], None
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        # One set-up and one calibration before each pass, so their
        # medians cover the same stretch of time as the passes.
        setups.append(setup_time(run, w, natoms, seed, run.tmp / "setup"))
        calibrations.append(run.spawn([replay, "calibrate"])[0])
        walls, rss, _, det = cli_pass(run, w, natoms, seed, WORKERS, run.tmp / f"pass-{len(passes)}")
        passes.append(walls)
        peaks.append(rss)
        if first is None:
            first = det
        run.check(det == first, f"pass {len(passes)}: results differ from pass 1")
    while len(setups) < SETUP_REPS:
        setups.append(setup_time(run, w, natoms, seed, run.tmp / "setup"))
    # Other tenants of a shared host slow everything on it, by up to 2x
    # for minutes at a time. The calibration kernel runs none of the
    # repo's code, so the ratio of its time to CALIBRATION_S measures
    # only the host; timings are quoted at the calibrated host speed.
    slowdown = statistics.median(calibrations) / CALIBRATION_S
    return {
        "setup_s": statistics.median(setups) / slowdown,
        "units_per_s": statistics.median(units(w) / sum(walls) for walls in passes) * slowdown,
        "peak_rss_mb": statistics.median(peaks) / 1024,
    }


def replay_args(w, seed, out):
    if w["kind"] == "sweep":
        args = ["sweep", "--benchmarks", ",".join(w["benchmarks"]),
                "--sizes", ",".join(map(str, w["sizes"])), "--mids", w["mids"]]
    else:
        args = ["campaign", "--benchmark", w["benchmark"], "--size", str(w["size"]),
                "--mid", str(w["mid"]), "--strategy", w["strategy"], "--error", w["error"],
                "--shots", str(w["shots"]), "--shards", str(w["shards"])]
    return args + ["--seed", str(seed), "--workers", str(WORKERS), "--out", str(out)]


def comparable(rows):
    """Rows without their wall-clock fields, which no two runs share."""
    out = []
    for r in rows:
        r = {k: v for k, v in r.items() if k not in TIMING_FIELDS}
        campaign = r["outcome"].get("Campaign")
        if campaign:
            campaign["ledger"] = dict(campaign["ledger"], recompile_time=None)
        out.append(r)
    return out


def per_layer(run, w, natoms, replay, seed):
    startup = [run.spawn([natoms])[0] for _ in range(STARTUP_REPS)]
    _, _, rows2, det2 = cli_pass(run, w, natoms, seed, WORKERS, run.tmp / "workers2")
    _, _, rows1, _ = cli_pass(run, w, natoms, seed, 1, run.tmp / "workers1")
    run.check(comparable(rows1) == comparable(rows2), "CLI rows differ between --workers 1 and --workers 2")

    out = run.tmp / "replay"
    out.mkdir()
    run.attempted += 1
    proc = subprocess.run([replay, *replay_args(w, seed, out)], capture_output=True, text=True,
                          timeout=CALL_TIMEOUT_S)
    if not run.check(proc.returncode == 0, f"replay exit {proc.returncode}: {proc.stderr.strip()}"):
        run.failed += 1
        return {}
    report = json.loads(proc.stdout.splitlines()[-1])
    kind = w["kind"]
    for name, result in report["results"].items():
        run.check(det_of_replay(kind, result) == det2, f"{name} replay results differ from the CLI's")
    shapes = cli_calls(w, natoms, seed, WORKERS, out)
    engine_rows = [r for i, (_, _, n) in enumerate(shapes) for r in run.rows(out / f"engine-{i}.jsonl", n)]
    run.check(comparable(engine_rows) == comparable(rows2), "engine rows differ from the CLI's")
    traced, engine = report["counters"]["traced"], report["counters"]["engine"]
    for key in SHARED_COUNTERS:
        run.check(traced.get(key, 0) == engine.get(key, 0),
                  f"counter {key}: traced {traced.get(key, 0)} != engine {engine.get(key, 0)}")

    metrics = dict(report["metrics"])
    metrics.update(quality(kind, det2))
    metrics.update({
        "cli.startup_ms": statistics.median(startup) * 1e3,
        "core.ops_scheduled": traced.get("ops_scheduled", 0),
        "loss.fixup_bfs_expansions": traced.get("fixup_bfs_expansions", 0),
        "loss.recompiles": traced.get("recompiles", 0),
        "engine.cache_hits": engine.get("compile_cache_hits", 0),
        "engine.cache_misses": engine.get("compile_cache_misses", 0),
        "engine.artifact_hits": traced.get("artifact_hits", 0),
        "engine.artifact_lowered_hits": traced.get("artifact_lowered_hits", 0),
    })
    if kind == "campaign":
        run.check(metrics["loss.reloads"] == engine.get("reloads", 0), "replayed reloads differ from the engine's")
        run.check(engine.get("shots_attempted", 0) == w["shots"], "engine ran the wrong number of shots")
    return metrics


def build():
    """Builds `natoms` and the replay; exits 2 if either build fails."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = ROOT / env["CARGO_TARGET_DIR"]
    for args in (["-p", "na-cli"], ["--manifest-path", "perfbench/replay/Cargo.toml"]):
        proc = subprocess.run(["cargo", "build", "--release", "--offline", "-q", *args],
                              cwd=ROOT, env=env, stdout=sys.stderr)
        if proc.returncode != 0:
            print(f"perfbench: build failed: cargo build {' '.join(args)}", file=sys.stderr)
            sys.exit(2)
    return target / "release" / "natoms", target / "release" / "perfbench-replay"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    natoms, replay = build()
    w = WORKLOADS[a.workload]
    tmp = natoms.parent.parent / "perfbench-tmp" / f"{a.workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    run = Run(tmp)
    try:
        if a.trace:
            values = per_layer(run, w, str(natoms), str(replay), a.seed)
        else:
            values = end_to_end(run, w, str(natoms), str(replay), a.seed, a.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics = {}
    for m in wanted:
        # A layer the workload never enters reports 0.
        value = values.get(m["name"], 0.0) if a.trace else values[m["name"]]
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
