#!/usr/bin/env python3
"""The repo benchmark: build the driver, run one workload, print metrics.

    python3 perfbench/run.py --workload suite88 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The first run configures and
builds perfbench_driver (with the imli library) under .bench_build/;
later runs rebuild only what changed.  --trace 0 times the workload and
prints the end-to-end metrics; --trace 1 makes the serial traced run and
prints the per-layer metrics.  Either way the outputs are checked (byte
for byte against ref/ at the reference seed 1) and the last line of
standard output is one JSON object (with --workload all, which runs the
three workloads in turn, one such object per workload, keyed by name):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every result, with its provenance, is also written to
.bench_build/results/ for compare.py.  README.md describes the workloads
and metrics.
"""

import argparse
import datetime
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
RESULTS = BUILD_ROOT / "results"
DRIVER = BUILD / "perfbench_driver"

REFERENCE_SEED = 1
JOBS = min(4, os.cpu_count() or 1)
# Every run must end within 180 s; leave room for the build check and
# the result file.
DRIVER_TIMEOUT_S = 165
# A timed run is spread over several driver processes, each timing its
# share of --seconds.  Pass times cluster by process (a process keeps its
# heap and code placement for life), so passes pooled from fresh
# processes give steadier medians than one long process.
PROCESSES = 8
# Set-up rounds per timed process; setup_s is the median of all of them.
SETUP_ROUNDS = 3

# The workload table.  The driver receives every field on its command
# line; the definition hash in each result file covers this table.
WORKLOADS = {
    # The paper's headline run (Table 1): every benchmark, both configs.
    "suite88": {
        "mode": "suite",
        "benchmarks": "",
        "recorded": "tests/data",
        "configs": ["tage-gsc", "tage-gsc+i"],
        "branches": 200000,
        "delay": 0,
        "jobs": JOBS,
        "reference": "ref/suite88.csv",
    },
    # Section 4.3.2: commit-time update at delay 63; restores dominate.
    # Its cells run in parallel too: a serial pass takes 7-13 s, too few
    # passes per run for a steady median on a shared host.  Past warm-up
    # almost only MM-4 mispredicts, so two draws of every kernel keep
    # imli_gain_pct steady from seed to seed.
    "delay63": {
        "mode": "suite",
        "benchmarks": "MM-*",
        "configs": ["tage-gsc", "tage-gsc+i"],
        "branches": 5000,
        "delay": 63,
        "copies": 2,
        "jobs": JOBS,
        "reference": "ref/delay63.csv",
    },
    # DSE: TAGE tables from L1-sized to several MB, journal and Pareto.
    "sweep-geometry": {
        "mode": "sweep",
        "benchmarks": "SPEC2K6-*",
        "base": "tage-gsc+i",
        "dims": ["tage.logsize=8,10,13,16", "sic.logsize=8,11"],
        "points": ["tage-gsc@tage.logsize=8", "tage-gsc@tage.logsize=10",
                   "tage-gsc@tage.logsize=13", "tage-gsc@tage.logsize=16"],
        "branches": 50000,
        "delay": 0,
        "jobs": JOBS,
        "reference": "ref/sweep-geometry.journal",
    },
}

PAPER_IMLI_GAIN_PCT = 6.5  # Table 1: TAGE-GSC 2.473 -> 2.313 MPKI (CBP4)


def fail(message):
    print("perfbench: error: " + message, file=sys.stderr)
    sys.exit(2)


def benchmark_spec():
    with open(HERE.parent / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no imli source tree beside %s (need CMakeLists.txt and src/)"
             % HERE.name)
    steps = [["cmake", "--build", str(BUILD), "--target",
              "perfbench_driver", "-j", str(JOBS)]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))


def driver_command(wl, seed, seconds, trace, work, raw):
    cmd = [str(DRIVER), "--mode", wl["mode"], "--benchmarks",
           wl["benchmarks"], "--branches", str(wl["branches"]),
           "--delay", str(wl["delay"]), "--jobs", str(wl["jobs"]),
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", str(work), "--out", str(raw),
           "--copies", str(wl.get("copies", 1))]
    if wl.get("recorded"):
        cmd += ["--recorded", str(ROOT / wl["recorded"])]
    if wl["mode"] == "suite":
        cmd += ["--configs", ",".join(wl["configs"])]
    else:
        cmd += ["--base", wl["base"]]
        for dim in wl["dims"]:
            cmd += ["--dim", dim]
        for point in wl["points"]:
            cmd += ["--point", point]
    return cmd


def is_imli(config):
    return config.split("@")[0].endswith("+i")


def end_to_end(raw):
    mpki = raw["config_mpki"]
    imli = [v for c, v in mpki.items() if is_imli(c)]
    base = [v for c, v in mpki.items() if not is_imli(c)]
    mpki_mean = sum(imli) / len(imli)
    base_mean = sum(base) / len(base)
    wall = stats.median(raw["wall_s"])
    return {
        "wall_s": wall,
        "cpu_s": stats.median(raw["cpu_s"]),
        "branches_per_s": raw["conditionals_per_pass"] / wall,
        "setup_s": stats.median(raw["setup_s"]),
        "peak_rss_mb": stats.median(raw["peak_rss_kb"]) / 1024.0,
        "mpki_mean": mpki_mean,
        "imli_gain_pct": 100.0 * (1.0 - mpki_mean / base_mean),
    }


def per_layer(raw):
    t = raw["traced"]
    clock = t["clock_read_s"]
    ops = t["ops"]
    rep = t["replay"]
    dse = t.get("dse", {})

    def s(span):
        return stats.corrected_seconds(span, clock)

    def ns(span):
        return stats.per_call_ns(span, clock)

    # Each timed call costs two clock reads of wall time: one inside its
    # span (removed by s()) and one outside it, charged here.
    timed = list(ops.values()) + [t["next_chunk"], t["open"]]
    engine_self = t["traced_wall_s"] - sum(
        v["seconds"] + v["segments"] * clock for v in timed)
    commits = t["commits"]
    return {
        "trace.next_chunk_s": s(t["next_chunk"]),
        "trace.records": t["records"],
        "corpus.open_s": s(t["open"]),
        "corpus.cache_hit_ratio": stats.ratio(
            t["cache_hits"], t["cache_hits"] + t["cache_misses"]),
        "history.push_ns": ns(rep["push"]),
        "history.folds": rep["folds"],
        "history.restore_distance_mean": stats.ratio(
            t["restore_distance"], ops["restore"]["calls"]),
        "predictors.restore_s": s(ops["restore"]),
        "predictors.restore_calls": ops["restore"]["calls"],
        "predictors.tage_ns": ns(rep["tage"]),
        "predictors.sc_ns": ns(rep["sc"]),
        "predictors.predict_s": s(ops["predict"]),
        "predictors.update_s": s(ops["update"]),
        "predictors.speculate_s": s(ops["speculate"]),
        "predictors.checkpoint_s": s(ops["checkpoint"]),
        "predictors.track_s": s(ops["track"]),
        "predictors.table_bytes": t["table_bytes"],
        "core.imli_ns": ns(rep["imli"]),
        "core.sic_oh_ns": ns(rep["sic_oh"]),
        "sim.engine_self_s": max(0.0, engine_self),
        "sim.cell_p50_s": stats.median(t["serial_bench_seconds"]),
        "sim.cell_max_s": max(t["serial_bench_seconds"]),
        "sim.pipeline.commits": commits,
        "sim.pipeline.squashes": t["squashes"],
        "sim.pipeline.replays": t["replays"],
        "sim.pipeline.useful_ratio": stats.useful_ratio(commits,
                                                        t["replays"]),
        "sim.pipeline.predicts_per_commit": stats.ratio(
            ops["predict"]["calls"], commits),
        "util.pool.busy_ratio": stats.busy_ratio(
            t["jobs_n_bench_seconds"], t["jobs_n_wall_s"], t["jobs_n"]),
        "util.pool.idle_s": stats.idle_seconds(
            t["jobs_n_bench_seconds"], t["jobs_n_wall_s"], t["jobs_n"]),
        "dse.cells": dse.get("cells", 0),
        "dse.journal_bytes": dse.get("journal_bytes", 0),
        "dse.journal_load_s": dse.get("journal_load_s", 0.0),
        "dse.pareto_s": dse.get("pareto_s", 0.0),
        "dse.resume_s": dse.get("resume_s", 0.0),
        "bench.trace_overhead_ratio": stats.ratio(
            t["traced_wall_s"], t["serial_wall_s"]),
    }


CALL_METRICS = ("predictors.predict_s", "predictors.update_s",
                "predictors.track_s", "predictors.speculate_s",
                "predictors.checkpoint_s", "predictors.restore_s")


def call_shares(values):
    """Each timed predictor call's share of all predictor-call seconds,
    largest first."""
    total = sum(values[m] for m in CALL_METRICS)
    return sorted(((values[m] / total if total else 0.0, m)
                   for m in CALL_METRICS), reverse=True)


def reference_mismatches(output, reference):
    """Lines of output that differ from the reference (0 = identical)."""
    got = Path(output).read_bytes()
    want = reference.read_bytes()
    if got == want:
        return 0
    return sum(1 for a, b in itertools.zip_longest(
        got.splitlines(), want.splitlines()) if a != b) or 1


def source_hash():
    """SHA-256 over the library sources and build files, so a result from
    a checkout that is not a git repository still names its code."""
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += [ROOT / "CMakeLists.txt"]
    files += sorted(p for p in HERE.iterdir()
                    if p.is_file() and p.suffix in (".cc", ".txt", ".py"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                               "--dirty"], capture_output=True, text=True,
                              timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def run_driver(cmd, started):
    """Run one driver process; fail unless it ends cleanly in time."""
    budget = DRIVER_TIMEOUT_S - (time.monotonic() - started)
    if budget <= 0:
        fail("no time left for another driver process")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=budget)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %.0f s" % budget)
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode)


def load_raw(path):
    with open(path) as f:
        return json.load(f)


def timed_processes(wl, seed, seconds, work, started):
    """The timed phase: driver processes, each timing up to its share of
    @p seconds (at least one pass), until the next would end past
    @p seconds.  Only the first makes the subset check."""
    raws, timed = [], 0.0
    while not raws or timed + raws[-1]["wall_s"][-1] <= seconds:
        pdir = work / ("p%d" % len(raws))
        raw_path = pdir / "raw.json"
        share = min(seconds / PROCESSES, seconds - timed)
        cmd = driver_command(wl, seed, share, 0, pdir, raw_path)
        cmd += ["--setup-rounds", str(SETUP_ROUNDS),
                "--subset-check", "0" if raws else "1"]
        run_driver(cmd, started)
        raws.append(load_raw(raw_path))
        timed += sum(raws[-1]["wall_s"])
    return raws


def pooled(raws):
    """One raw result for a timed run: the first process's, with every
    process's passes, set-up rounds and checks pooled.  Every process
    must have simulated exactly what the first did."""
    raw = dict(raws[0])
    for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_kb"):
        raw[key] = [v for r in raws for v in r[key]]
    raw["attempted"] = sum(r["attempted"] for r in raws)
    raw["failed"] = sum(r["failed"] for r in raws)
    raw["failures"] = [m for r in raws for m in r["failures"]]
    for i, r in enumerate(raws[1:], 1):
        if any(r[k] != raw[k] for k in ("fingerprints",
                                         "conditionals_per_pass",
                                         "config_mpki")):
            raw["failed"] += r["attempted"]
            raw["failures"].append(
                "process %d simulated other results than process 0" % i)
    raw["processes"] = len(raws)
    return raw


def run_workload(name, seed, seconds, trace, spec, started):
    """Run one workload on the built driver; return its report lines and
    its result line (the JSON object the run prints last)."""
    wl = WORKLOADS[name]
    work = BUILD_ROOT / "work" / ("%s-%d" % (name, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return report_workload(name, wl, seed, seconds, trace, spec,
                               started, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report_workload(name, wl, seed, seconds, trace, spec, started, work):
    if trace:
        raw_path = work / "raw.json"
        run_driver(driver_command(wl, seed, seconds, trace, work, raw_path),
                   started)
        raw = load_raw(raw_path)
    else:
        raw = pooled(timed_processes(wl, seed, seconds, work, started))

    # A cell can fail several checks; failures never exceed attempts.
    attempted, failed = raw["attempted"], raw["failed"]
    failures = list(raw["failures"])
    if seed == REFERENCE_SEED:
        bad = reference_mismatches(raw["output"], HERE / wl["reference"])
        failed += bad
        if bad:
            failures.append("%d output lines differ from %s"
                            % (bad, wl["reference"]))
    failed = min(attempted, failed)

    if trace:
        values = per_layer(raw)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(raw)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    RESULTS.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": {
            "build_type": raw["build_type"],
            "compiler": raw["compiler"],
            "commit": git_commit(),
            "source_sha256": source_hash(),
            "nproc": raw["nproc"],
            "jobs": raw["jobs"],
            "seed": raw["seed"],
            "workload_sha256": hashlib.sha256(json.dumps(
                wl, sort_keys=True).encode()).hexdigest(),
            "corpus_fingerprints": raw["fingerprints"],
            "utc": stamp.isoformat(timespec="seconds"),
        },
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "raw": raw,
    }
    stem = "%s-seed%d-trace%d-%s-%d" % (
        name, seed, trace, stamp.strftime("%Y%m%dT%H%M%S"), os.getpid())
    with open(RESULTS / (stem + ".json"), "w") as f:
        json.dump(result, f, indent=1)
    if trace:
        shutil.copyfile(work / "layers.trace.json",
                        RESULTS / (stem + ".trace.json"))

    lines = ["%s  seed %d  jobs %d  %s" % (
        name, seed, raw["jobs"], "traced (serial)" if trace else
        "%d timed passes in %d processes" % (len(raw["wall_s"]),
                                             raw["processes"]))]
    for m in wanted:
        lines.append("  %-36s %16.6g %-6s (%s is better)" % (
            m["name"], metrics[m["name"]]["value"], m["unit"], m["better"]))
    lines.append("  %-36s %16.6g %-6s (%d of %d cells)" % (
        "failed_cell_ratio", stats.ratio(failed, attempted), "ratio",
        failed, attempted))
    if trace:
        lines.append("  predictor-call shares: " + ", ".join(
            "%s %.1f%%" % (m.split(".")[1], 100 * share)
            for share, m in call_shares(values)))
    else:
        lines.append("  imli_gain_pct beside the paper's %.1f%% (synthetic "
                     "traces: compares shape only)" % PAPER_IMLI_GAIN_PCT)
    lines += ["  FAILED: " + line for line in failures]
    return lines, {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS) + ["all"],
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if args.seconds <= 0:
        fail("--seconds must be > 0")

    spec = benchmark_spec()
    started = time.monotonic()  # the build counts against the first run
    build()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        lines, results[name] = run_workload(
            name, args.seed, args.seconds, args.trace, spec, started)
        print("\n".join(lines))
        started = time.monotonic()
    # One workload: its result line.  All: the lines keyed by workload.
    print(json.dumps(results[names[0]] if len(names) == 1 else results))

if __name__ == "__main__":
    main()
