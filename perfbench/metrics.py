"""Span and metric arithmetic for the perfbench driver's raw records.

Pure functions only (no I/O, no processes), so the self-tests can check
them on hand-built records.  Times are seconds from the driver's start.
"""

import math

# Percentiles tried for a tail figure, highest last.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(pct, n):
    """1-based nearest rank; rounded first so 99.9 % of 10000 is 9990."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def tail_percentile(values):
    """The highest ladder percentile with at least MIN_BEYOND samples above
    its rank, as (pct, value, n).  (None, None, n) when even the median
    has fewer than MIN_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    best = (None, None, n)
    for pct in TAIL_LADDER:
        rank = _rank(pct, n)
        if n - rank >= MIN_BEYOND:
            best = (pct, ordered[rank - 1], n)
    return best


def median(values):
    ordered = sorted(values)
    if not ordered:
        return None
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def worker_util(cpu_s, jobs, campaign_s):
    """Process CPU seconds over the worker-seconds the campaign had."""
    if jobs <= 0 or campaign_s <= 0.0:
        return 0.0
    return cpu_s / (jobs * campaign_s)


def attribute_calibrations(calibrations, first_entry_by_die):
    """Map each die to its calibration publish.

    The engine reports a publish without its die, so each die, in order of
    its first cell entry, takes the latest not-yet-taken publish that ends
    before that entry: a die's cells can only start after its calibration
    is published.  Exact at one worker; with several, two publishes that
    both precede both dies' first cells may swap, which keeps every sum.
    `calibrations` is a list of (lane, prev_end, end); returns
    {die: index into calibrations}."""
    taken = set()
    out = {}
    for die, entry in sorted(first_entry_by_die.items(), key=lambda kv: (kv[1], kv[0])):
        best = None
        for i, (_, _, end) in enumerate(calibrations):
            if i in taken or end > entry:
                continue
            if best is None or end > calibrations[best][2]:
                best = i
        if best is not None:
            taken.add(best)
            out[die] = best
    return out


def task_spans(record):
    """Spans of the campaign's tasks, rebuilt from the driver's boundary
    timestamps, plus each cell's wait for a worker.

    A worker runs tasks back to back, so a task starts when the previous
    one on its lane ended, unless it was not ready yet: a calibration is
    ready at campaign start, a cell when its die's calibration publishes.
    Returns (spans, waits_s) with spans as dicts like the driver's."""
    campaign = next(s for s in record["spans"] if s["name"] == "exec.campaign")
    campaign_id = record["spans"].index(campaign)
    c0 = campaign["t0"]
    cals = record["calibrations"]
    first_entry = {}
    for cell in record["cells"]:
        d = cell["die"]
        first_entry[d] = min(first_entry.get(d, math.inf), cell["entry"])
    owner = attribute_calibrations(cals, first_entry)
    cal_die = {i: d for d, i in owner.items()}

    spans = []
    for i, (lane, prev_end, end) in enumerate(cals):
        spans.append(_span("core.calibrate", lane, max(prev_end, c0), end, campaign_id,
                           cal_die.get(i, -1), -1))
    waits = []
    for cell in record["cells"]:
        d, e, lane = cell["die"], cell["env"], cell["lane"]
        ready = cals[owner[d]][2] if d in owner else c0
        start = max(cell["prev_end"], ready, c0)
        waits.append(start - ready)
        parent = len(record["spans"]) + len(spans)
        spans.append(_span("exec.cell", lane, start, cell["end"], campaign_id, d, e))
        spans.append(_span("core.session", lane, start, cell["entry"], parent, d, e))
        served = any(r[3] for r in cell["reads"])
        if served:
            spans.append(_span("rf.surrogate.serve", lane, cell["reads_t0"], cell["reads_t1"],
                               parent, d, e))
            continue
        t = cell["reads_t0"]
        for r in cell["reads"]:
            host_s = r[6]
            if host_s is None or host_s < 0.0:
                continue
            spans.append(_span("core.read", lane, t, t + host_s, parent, d, e))
            t += host_s
    return spans, waits


def _span(name, lane, t0, t1, parent, die, env):
    return {"name": name, "lane": lane, "t0": t0, "t1": t1, "parent": parent, "die": die,
            "env": env}


def all_spans(record):
    spans, _ = task_spans(record)
    return list(record["spans"]) + spans


def critical_path_s(spans):
    """Longest dependency chain: set-up, then the slowest die's calibration
    plus its slowest cell, then teardown.  It is the run's time with
    unlimited workers; the wall time above it is waiting for a worker."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    setup = sum(s["t1"] - s["t0"] for s in by_name.get("bench.setup", []))
    teardown = sum(s["t1"] - s["t0"] for s in by_name.get("exec.teardown", []))
    cal = {s["die"]: s["t1"] - s["t0"] for s in by_name.get("core.calibrate", [])}
    longest = {}
    for s in by_name.get("exec.cell", []):
        longest[s["die"]] = max(longest.get(s["die"], 0.0), s["t1"] - s["t0"])
    chain = max((cal.get(d, 0.0) + c for d, c in longest.items()), default=0.0)
    return setup + chain + teardown


def self_times(spans):
    """Per span, its duration minus the part its children cover."""
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None and s["parent"] >= 0:
            children.setdefault(int(s["parent"]), []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = _union_length(
            [(max(spans[c]["t0"], s["t0"]), min(spans[c]["t1"], s["t1"]))
             for c in children.get(i, [])])
        out.append(max(0.0, (s["t1"] - s["t0"]) - covered))
    return out


def _union_length(intervals):
    total = 0.0
    end = -math.inf
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def layer_summary(spans):
    """Flat per-layer and per-span-name totals: count, total and self time."""
    selfs = self_times(spans)
    names = {}
    layers = {}
    for s, self_s in zip(spans, selfs):
        dur = s["t1"] - s["t0"]
        n = names.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        n["count"] += 1
        n["total_s"] += dur
        n["self_s"] += self_s
        layer = s["name"].split(".", 1)[0]
        l = layers.setdefault(layer, {"count": 0, "self_s": 0.0})
        l["count"] += 1
        l["self_s"] += self_s
    return {"layers": layers, "spans": names}


def chrome_trace(spans, workload):
    """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
               "args": {"name": "perfbench " + workload}}]
    for s in spans:
        args = {}
        if s.get("die", -1) >= 0:
            args["die"] = s["die"]
        if s.get("env", -1) >= 0:
            args["env"] = s["env"]
        events.append({"name": s["name"], "cat": s["name"].split(".", 1)[0], "ph": "X",
                       "pid": 1, "tid": int(s["lane"]), "ts": s["t0"] * 1e6,
                       "dur": max(0.0, s["t1"] - s["t0"]) * 1e6, "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def figure_series(record):
    """The figure's two series per sweep point: |error| max and mean over
    the Monte-Carlo dies ("proc") and over the nominal die ("env").  Reads
    that did not settle (or, for Fig. 5, saw no valid clock) are left out,
    as on a bench."""
    sweep = record["sweep"]
    proc = [[] for _ in sweep]
    env = [[] for _ in sweep]
    for cell in record["cells"]:
        sink = env if cell["nominal_die"] else proc
        for i, r in enumerate(cell["reads"]):
            if r[2] and r[0] is not None:
                sink[i].append(abs(r[0] - sweep[i]))
    out = {}
    for label, data in (("proc", proc), ("env", env)):
        out[label + "_max"] = [max(v) if v else None for v in data]
        out[label + "_mean"] = [sum(v) / len(v) if v else None for v in data]
    return out


def exact_counts(record):
    """Counts that must repeat bit for bit across runs of one workload."""
    cells = record["cells"]
    ex = record["exec"]
    session = sum(c["session_iters"] for c in cells)
    cell_iters = sum(c["iters"] for c in cells)
    return {
        "circuit.newton_iters": ex["newton_iterations"],
        "circuit.steps": sum(c["steps"] for c in cells),
        "core.session_newton": session,
        "core.calibrate_newton": ex["newton_iterations"] - cell_iters,
        "core.read_newton": sum(r[4] for c in cells for r in c["reads"]),
        "sim_test_s": repr(sum(c["sim_s"] for c in cells)),
        "exec.journal_records": ex["journal_records"],
        "exec.journal_fsyncs": ex["journal_fsyncs"],
        "exec.journal_bytes": ex["journal_bytes"],
        "rf.surrogate.observed": record["store"]["observed"],
        "rf.surrogate.refits": record["store"]["refits"],
        "reads_ok": sum(1 for c in cells for r in c["reads"] if r[2]),
    }
