#!/usr/bin/env python3
"""perfbench: the repository's end-to-end benchmark.

Runs one paper-protocol workload (see README.md) as a closed batch: one
campaign in one driver process, its die population sampled from --seed.
Builds the driver from the surrounding source tree on first use.

    python3 perfbench/run.py --workload fig4_cold_serial --seed 1 \\
        --seconds 45 --trace 0
    python3 perfbench/run.py --smoke          # every workload, minimal size

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1).  The line before it is the host block.  Raw records, the Chrome
trace and the per-layer summary land in .bench_out/ under the checkout.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402

WORKLOADS = ("fig4_cold_serial", "fig5_cold_parallel", "fig4_warm_rerun")
DEFAULT_SEED = 20050307
# The paper's worst-error bounds (Fig. 4 in dB, Fig. 5 in GHz); every seed
# must stay within them.
PAPER_BOUND = {"fig4": 3.0, "fig5": 0.15}
# How far the default-seed series may move from the recorded values.  Zero
# at the recording commit; a solver change may use this much.
SERIES_TOLERANCE = {"fig4": 0.01, "fig5": 0.001}
# How far a served value, less its key's trained offset, may sit from the
# other keys' (the offsets are 0.25 mV apart).
KEY_TOLERANCE_V = 1e-9
RUN_TIMEOUT_S = 170
PROBE_REPEATS = 3
OUT = ROOT / ".bench_out"


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "bench" / "harness.cpp").is_file():
        raise BenchError("no rfabm source tree around perfbench/ (src/, bench/ missing)")
    bdir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
                     + gen)
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench_driver", "-j", jobs])
    with open(bdir / "perfbench-build.log", "w") as logf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError("build failed: %s (see %s)" % (" ".join(cmd), logf.name))
    binary = bdir / "perfbench_driver"
    if not binary.is_file():
        raise BenchError("build produced no %s" % binary)
    return binary


def binary_id(binary):
    return hashlib.sha256(binary.read_bytes()).hexdigest()[:16]


# --------------------------------------------------------------------------
# Host block

def probe(binary):
    runs = []
    for _ in range(PROBE_REPEATS):
        out = subprocess.run([str(binary), "--probe"], capture_output=True, text=True,
                             timeout=60, check=True).stdout
        runs.append(json.loads(out))
    info = runs[0]
    info["probe_ms"] = statistics.median(r["probe_ms"] for r in runs)
    return info


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# --------------------------------------------------------------------------
# One driver run

def run_driver(binary, workload, seed, trace, smoke):
    OUT.mkdir(exist_ok=True)
    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    record_path = OUT / ("%s-seed%d%s%s.json" % (workload, seed, "-trace" if trace else "",
                                                 "-smoke" if smoke else ""))
    record_path.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--out", str(record_path),
           "--workdir", str(work), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("driver exited %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
    with open(record_path) as f:
        record = json.load(f)
    return record, t0


# --------------------------------------------------------------------------
# Checks

def check(record, expected):
    """List of failed checks (empty = correct)."""
    problems = []
    fig = record["figure"]
    cells = record["cells"]
    n_reads = len(record["sweep"])
    if len(cells) != (record["mc_dies"] + 1) * record["envs"]:
        problems.append("campaign returned %d cells" % len(cells))
    for c in cells:
        if c["lane"] < 0 or len(c["reads"]) != n_reads:
            problems.append("cell die %d env %d did not run" % (c["die"], c["env"]))
    ex = record["exec"]
    for key in ("tasks_skipped", "quarantined", "watchdog_fires"):
        if ex[key]:
            problems.append("exec.%s = %d" % (key, ex[key]))
    if ex["journal_degraded"]:
        problems.append("journal degraded")

    series = M.figure_series(record)
    bound = PAPER_BOUND[fig]
    for label in ("proc_max", "env_max"):
        worst = max((v for v in series[label] if v is not None), default=None)
        if worst is None or worst > bound:
            problems.append("%s %s worst error %s over the paper bound %g" %
                            (fig, label, worst, bound))
    if expected is not None:
        dev = series_deviation(series, expected)
        if dev is None or dev > SERIES_TOLERANCE[fig]:
            problems.append("series moved %s from the recorded values (tolerance %g)" %
                            (dev, SERIES_TOLERANCE[fig]))

    store = record["store"]
    served = sum(1 for c in cells for r in c["reads"] if r[3])
    if record["workload"] == "fig4_warm_rerun":
        if served != len(cells) * n_reads or store["hits"] != served:
            problems.append("warm re-run served %d of %d reads" % (served, len(cells) * n_reads))
        if record["served_mismatch"]:
            problems.append("%d served values differ from the batched try_serve" %
                            record["served_mismatch"])
        problems += check_served_keys(record)
    elif served:
        problems.append("cold workload served %d reads from the store" % served)
    return problems


def check_served_keys(record):
    """Each warm key was trained on the reference curve plus its own offset,
    so a served value minus its cell's offset is the same for every cell at
    one sweep point, and within the serving budget of the reference curve.
    A die, corner or supply mix-up in the serving path breaks the first."""
    problems = []
    for i, ref in enumerate(record["ref_vout"]):
        base = [c["reads"][i][1] - c["key_offset_v"] for c in record["cells"]
                if i < len(c["reads"])]
        if not base:
            continue
        if max(base) - min(base) > KEY_TOLERANCE_V:
            problems.append("served values at sweep point %d do not follow their keys' trained "
                            "offsets (spread %.3g V)" % (i, max(base) - min(base)))
        if max(abs(b - ref) for b in base) > record["serve_budget_v"]:
            problems.append("served values at sweep point %d are off the reference curve" % i)
    return problems


def series_deviation(series, expected):
    dev = 0.0
    for key, want in expected.items():
        got = series.get(key)
        if got is None or len(got) != len(want):
            return None
        for a, b in zip(got, want):
            if (a is None) != (b is None):
                return None
            if a is not None:
                dev = max(dev, abs(a - b))
    return dev


def check_exact(build_id, workload, seed, smoke, counts):
    """Exact counts must repeat across every run of (build, workload, seed).
    The first run records them under .bench_out/exact.json."""
    path = OUT / "exact.json"
    table = {}
    if path.is_file():
        with open(path) as f:
            table = json.load(f)
    key = "%s:%s:%d:%s" % (build_id, workload, seed, "smoke" if smoke else "full")
    if key not in table:
        table[key] = counts
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as f:
            json.dump(table, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return []
    return ["exact count %s was %s, now %s" % (k, v, counts.get(k))
            for k, v in table[key].items() if counts.get(k) != v]


def load_expected(workload, seed, smoke):
    if smoke or seed != DEFAULT_SEED:
        return None
    path = HERE / "expected.json"
    if not path.is_file():
        return None
    with open(path) as f:
        return json.load(f).get(workload)


# --------------------------------------------------------------------------
# Metrics

def read_counts(record):
    """(attempted, failed) reads.  Every read of the campaign grid is
    attempted; a read fails unless it settled (power) or saw a valid clock
    (frequency) in a cell that ran and was not quarantined."""
    attempted = (record["mc_dies"] + 1) * record["envs"] * len(record["sweep"])
    quarantined = {tuple(k) for k in record["quarantined_cells"]}
    ok = sum(1 for c in record["cells"] if c["lane"] >= 0 and
             (c["die"], c["env"]) not in quarantined for r in c["reads"] if r[2])
    return attempted, attempted - ok


def end_to_end(record, wall_s):
    attempted, failed = read_counts(record)
    return {
        "wall_s": (wall_s, "s"),
        "setup_s": (record["setup_s"], "s"),
        "sim_test_s": (sum(c["sim_s"] for c in record["cells"]), "sim_s"),
        "reads_ok_ratio": ((attempted - failed) / attempted if attempted else 0.0, "ratio"),
        "peak_rss_mb": (record["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(record, untraced_wall, traced_wall, probe_ms):
    spans = M.all_spans(record)
    _, waits = M.task_spans(record)
    cells = record["cells"]
    reads = [r for c in cells for r in c["reads"]]
    cold = [r for r in reads if not r[3]]
    host = [r[6] for r in cold if r[6] is not None and r[6] >= 0.0]
    read_iters = sum(r[4] for r in cold)
    steps = sum(c["steps"] for c in cells)
    exact = M.exact_counts(record)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s["t1"] - s["t0"])
    tail_pct, tail, n = M.tail_percentile([h * 1e3 for h in host])
    ex = record["exec"]
    store = record["store"]
    lookups = store["hits"] + store["misses"] + store["out_of_envelope"] + \
        store["bound_too_loose"]
    served = sum(1 for r in reads if r[3])
    cache_total = ex["cache_hits"] + ex["cache_misses"]

    def med(values, scale=1.0):
        m = M.median(values)
        return 0.0 if m is None else m * scale

    out = {
        "circuit.newton_iters": (exact["circuit.newton_iters"], "count"),
        "circuit.steps": (exact["circuit.steps"], "count"),
        "circuit.iters_per_step": (sum(c["iters"] for c in cells) / steps if steps else 0.0,
                                   "ratio"),
        "circuit.us_per_iter": (sum(host) * 1e6 / read_iters if read_iters else 0.0, "us"),
        "core.reference_s": (sum(by_name.get("core.reference", [])), "s"),
        "core.read_ms.p50": (med(host, 1e3), "ms"),
        "core.read_ms.ptail": (tail if tail is not None else 0.0, "ms"),
        "core.read_ms.ptail_pct": (tail_pct if tail_pct is not None else 0.0, "%"),
        "core.read_ms.n": (n, "count"),
        "core.session_newton": (exact["core.session_newton"], "count"),
        "core.session_ms.p50": (med(by_name.get("core.session", []), 1e3), "ms"),
        "core.calibrate_newton": (exact["core.calibrate_newton"], "count"),
        "core.calibrate_s.p50": (med(by_name.get("core.calibrate", [])), "s"),
        "core.sim_read_us.mean": (sum(r[5] for r in reads) * 1e6 / len(reads) if reads else 0.0,
                                  "us"),
        "exec.campaign_s": (record["campaign_s"], "s"),
        "exec.worker_util": (M.worker_util(record["cpu_campaign_s"], record["jobs"],
                                           record["campaign_s"]), "ratio"),
        "exec.critical_path_s": (M.critical_path_s(spans), "s"),
        "exec.cell_wait_ms.p50": (med(waits, 1e3), "ms"),
        "exec.cal_cache_hit_ratio": (ex["cache_hits"] / cache_total if cache_total else 0.0,
                                     "ratio"),
        "exec.steals": (ex["steals"], "count"),
        "exec.journal_records": (ex["journal_records"], "count"),
        "exec.journal_fsyncs": (ex["journal_fsyncs"], "count"),
        "exec.journal_bytes": (ex["journal_bytes"], "bytes"),
        "exec.teardown_s": (record["teardown_s"], "s"),
        "rf.surrogate.lookups": (lookups, "count"),
        "rf.surrogate.hit_ratio": (store["hits"] / lookups if lookups else 0.0, "ratio"),
        "rf.surrogate.load_ms": (max(record["load_ms"], 0.0), "ms"),
        "rf.surrogate.save_ms": (max(record["save_ms"], 0.0), "ms"),
        "rf.surrogate.serve_us": (sum(by_name.get("rf.surrogate.serve", [])) * 1e6 / served
                                  if served else 0.0, "us"),
        "rf.surrogate.observed": (store["observed"], "count"),
        "rf.surrogate.refits": (store["refits"], "count"),
        "host.probe_ms": (probe_ms, "ms"),
        "trace.wall_untraced_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
    return out


def write_trace(record, tag):
    spans = M.all_spans(record)
    with open(OUT / ("trace-%s.json" % tag), "w") as f:
        json.dump(M.chrome_trace(spans, record["workload"]), f)
    with open(OUT / ("layers-%s.json" % tag), "w") as f:
        json.dump(M.layer_summary(spans), f, indent=1, sort_keys=True)


# --------------------------------------------------------------------------

def measure(binary, workload, seed, trace, smoke):
    """One measured run.  Returns (result object, host block)."""
    expected = load_expected(workload, seed, smoke)
    build_id = binary_id(binary)
    host = {"nproc": os.cpu_count(), "cpu_model": cpu_model()}
    before = probe(binary)
    host.update({k: before[k] for k in ("compiler", "build_type")})

    problems = []
    # A traced run needs an untraced wall time to state the tracing
    # overhead: the median of this checkout's untraced runs of the workload,
    # or one untraced pass first when there are none yet.
    history = OUT / "untraced-walls.json"
    walls = json.loads(history.read_text()) if history.is_file() else {}
    key = "%s:%s:%s" % (build_id, workload, "smoke" if smoke else "full")
    passes = [False] if not trace else ([True] if walls.get(key) else [False, True])
    for traced in passes:
        record, t0 = run_driver(binary, workload, seed, traced, smoke)
        problems += check(record, expected)
        problems += check_exact(build_id, workload, seed, smoke, M.exact_counts(record))
        wall = time.perf_counter() - t0
        if not traced:
            walls.setdefault(key, []).append(wall)
            history.write_text(json.dumps(walls))
    after = probe(binary)
    host["probe_ms_before"] = before["probe_ms"]
    host["probe_ms_after"] = after["probe_ms"]
    probe_ms = 0.5 * (before["probe_ms"] + after["probe_ms"])

    attempted, failed = read_counts(record)
    if trace:
        write_trace(record, "%s-seed%d" % (workload, seed))
        values = per_layer(record, statistics.median(walls[key]), wall, probe_ms)
    else:
        values = end_to_end(record, wall)
    if expected:
        host["series_deviation"] = series_deviation(M.figure_series(record), expected)
    for p in problems:
        log("check failed: " + p)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    return result, host


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=45,
                    help="nominal run length; each workload is a fixed-size batch")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at minimal size through all checks")
    args = ap.parse_args(argv)
    if not (args.workload or args.smoke):
        ap.error("--workload is required")
    try:
        binary = build()
        if args.smoke:
            return smoke(binary)
        result, host = measure(binary, args.workload, args.seed, bool(args.trace), False)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    host["workload"] = args.workload
    host["seed"] = args.seed
    print(json.dumps({"host": host}))
    print(json.dumps(result), flush=True)
    return 0


def smoke(binary):
    """Each workload at minimal size through every check, traced (after an
    untraced pass when none is on record, so the exact counts repeat).
    Exit 0 iff all pass."""
    ok = True
    for workload in WORKLOADS:
        result, _ = measure(binary, workload, 1, True, True)
        log("smoke %-20s correct=%s attempted=%d failed=%d" %
            (workload, result["correct"], result["attempted"], result["failed"]))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
