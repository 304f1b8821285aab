"""Self-tests of the benchmark: metric arithmetic on hand-built records, and
a smoke run of every workload through all the checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402
import run  # noqa: E402


def span(name, t0, t1, lane=0, parent=-1, die=-1, env=-1):
    return {"name": name, "lane": lane, "t0": t0, "t1": t1, "parent": parent, "die": die,
            "env": env}


def cell(die, env, lane, prev_end, entry, end, reads):
    return {"die": die, "env": env, "lane": lane, "prev_end": prev_end, "entry": entry,
            "end": end, "reads_t0": entry, "reads_t1": end, "reads": reads,
            "nominal_die": False, "session_iters": 0, "iters": 0, "steps": 0, "sim_s": 0.0,
            "key_offset_v": 0.0}


class PercentileRule(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(M.tail_percentile(range(1, 101)), (90.0, 90, 100))
        self.assertEqual(M.tail_percentile(range(1, 1001)), (99.0, 990, 1000))
        self.assertEqual(M.tail_percentile(range(1, 10001)), (99.9, 9990, 10000))

    def test_small_samples_fall_back_to_median_or_nothing(self):
        self.assertEqual(M.tail_percentile(range(1, 64)), (50.0, 32, 63))
        self.assertEqual(M.tail_percentile(range(1, 20)), (None, None, 19))
        self.assertEqual(M.tail_percentile([]), (None, None, 0))

    def test_unsorted_input(self):
        values = list(range(100, 0, -1))
        self.assertEqual(M.tail_percentile(values), (90.0, 90, 100))

    def test_median(self):
        self.assertIsNone(M.median([]))
        self.assertEqual(M.median([3, 1, 2]), 2)
        self.assertEqual(M.median([4, 1, 2, 3]), 2.5)


class SpanArithmetic(unittest.TestCase):
    def record(self):
        # Two workers.  Set-up 0..10 s, campaign 10..20 s, teardown 20..20.5.
        # Lane 1 calibrates die 0 (10..13), then runs die 0's cells back to
        # back, so its second cell waits 2 s for the worker.  Lane 2
        # calibrates die 1 (10..14) and runs die 1's cells; the last one
        # reports a previous-task end before its die was ready, so it
        # starts at the ready time.
        spans = [span("bench.run", 0, 20.5), span("bench.setup", 0, 10, parent=0),
                 span("core.reference", 0, 10, parent=1),
                 span("exec.campaign", 10, 20, parent=0),
                 span("exec.teardown", 20, 20.5, parent=0)]
        calibrations = [[1, 10.0, 13.0], [2, 10.0, 14.0]]
        read = [1.0, 0.0, True, False, 100, 1e-6, 0.5]
        cells = [
            cell(0, 0, 1, 13.0, 13.2, 15.0, [read]),   # 2 s, ready at 13
            cell(0, 1, 1, 15.0, 15.1, 20.0, [read]),   # 5 s, waited 2 s
            cell(1, 0, 2, 14.0, 14.1, 15.0, [read]),   # 1 s
            cell(1, 1, 2, 9.0, 16.1, 17.0, [read]),    # idle lane: starts at ready
        ]
        return {"spans": spans, "calibrations": calibrations, "cells": cells}

    def test_calibration_attribution(self):
        rec = self.record()
        first = {0: 13.2, 1: 14.1}
        self.assertEqual(M.attribute_calibrations(rec["calibrations"], first), {0: 0, 1: 1})
        # A publish after a die's first cell entry can never be its own.
        self.assertEqual(M.attribute_calibrations([[1, 0, 5.0]], {0: 4.0}), {})

    def test_task_spans_start_at_ready_time(self):
        spans, waits = M.task_spans(self.record())
        cells = [s for s in spans if s["name"] == "exec.cell"]
        self.assertEqual([c["t0"] for c in cells], [13.0, 15.0, 14.0, 14.0])
        self.assertEqual(waits, [0.0, 2.0, 0.0, 0.0])
        sessions = [s for s in spans if s["name"] == "core.session"]
        self.assertAlmostEqual(sessions[3]["t1"] - sessions[3]["t0"], 2.1)
        reads = [s for s in spans if s["name"] == "core.read"]
        self.assertEqual(len(reads), 4)
        self.assertEqual((reads[0]["t0"], reads[0]["t1"]), (13.2, 13.7))

    def test_critical_path(self):
        spans = M.all_spans(self.record())
        # set-up 10 + max(die 0: 3 + 5, die 1: 4 + 3) + teardown 0.5
        self.assertAlmostEqual(M.critical_path_s(spans), 18.5)

    def test_worker_util(self):
        self.assertAlmostEqual(M.worker_util(30.0, 2, 20.0), 0.75)
        self.assertAlmostEqual(M.worker_util(10.0, 1, 10.0), 1.0)
        self.assertEqual(M.worker_util(1.0, 2, 0.0), 0.0)

    def test_self_time_subtracts_union_of_children(self):
        spans = [span("p.x", 0, 10), span("c.a", 1, 3, parent=0), span("c.b", 2, 5, parent=0),
                 span("c.c", 8, 12, parent=0)]
        self.assertEqual(M.self_times(spans), [10 - (4 + 2), 2, 3, 4])
        summary = M.layer_summary(spans)
        self.assertEqual(summary["layers"]["c"]["count"], 3)
        self.assertAlmostEqual(summary["spans"]["p.x"]["self_s"], 4)

    def test_chrome_trace_events(self):
        trace = M.chrome_trace([span("core.read", 1.0, 1.5, lane=2, die=0, env=1)], "w")
        ev = trace["traceEvents"][1]
        self.assertEqual((ev["ph"], ev["tid"], ev["ts"], ev["dur"]), ("X", 2, 1e6, 0.5e6))
        self.assertEqual(ev["args"], {"die": 0, "env": 1})


class FigureSeries(unittest.TestCase):
    def test_series_skip_failed_reads(self):
        ok = [0.5, 0, True, False, 0, 0, -1]
        bad = [9.0, 0, False, False, 0, 0, -1]
        rec = {"sweep": [0.0], "cells": [
            dict(cell(0, 0, 1, 0, 0, 0, [ok]), nominal_die=False),
            dict(cell(0, 1, 1, 0, 0, 0, [bad]), nominal_die=False),
            dict(cell(1, 0, 1, 0, 0, 0, [[-0.25, 0, True, False, 0, 0, -1]]), nominal_die=True),
        ]}
        s = M.figure_series(rec)
        self.assertEqual((s["proc_max"], s["env_max"], s["env_mean"]), ([0.5], [0.25], [0.25]))


class OutputChecks(unittest.TestCase):
    def record(self, workload="fig4_warm_rerun", served=True):
        # Two dies; the warm store trained die d on the reference curve
        # (0.1 V at the one sweep point) plus offset (d - 0.5) * 1 mV.
        cells = []
        for d in range(2):
            offset = (d - 0.5) * 1e-3 if served else 0.0
            read = [-19.5, 0.1 + 0.002 + offset, True, served, 0, 0.0, -1]
            cells.append(dict(cell(d, 0, 1, 0, 0, 0, [read]), nominal_die=(d == 1),
                              key_offset_v=offset))
        return {"workload": workload, "figure": "fig4", "sweep": [-19.0], "mc_dies": 1,
                "envs": 1, "cells": cells, "served_mismatch": 0, "quarantined_cells": [],
                "ref_vout": [0.1], "serve_budget_v": 0.05,
                "exec": {"tasks_skipped": 0, "quarantined": 0, "watchdog_fires": 0,
                         "journal_degraded": False},
                "store": {"hits": 2 if served else 0}}

    def test_clean_record_passes(self):
        self.assertEqual(run.check(self.record(), None), [])
        self.assertEqual(run.check(self.record("fig4_cold_serial", served=False), None), [])

    def test_each_failure_is_named(self):
        rec = self.record()
        rec["cells"][0]["lane"] = -1
        rec["served_mismatch"] = 1
        rec["exec"]["quarantined"] = 1
        rec["cells"][1]["reads"][0][0] = -23.5  # 4.5 dB off: over the paper bound
        problems = run.check(rec, None)
        self.assertEqual(len(problems), 4, problems)
        cold = self.record("fig4_cold_serial")
        self.assertEqual(len(run.check(cold, None)), 1)

    def test_served_values_follow_their_keys(self):
        rec = self.record()
        # Die 1 served from die 0's surface: its value lacks its own offset.
        rec["cells"][1]["reads"][0][1] = rec["cells"][0]["reads"][0][1]
        problems = run.check(rec, None)
        self.assertEqual(len(problems), 1, problems)
        self.assertIn("trained offsets", problems[0])
        rec = self.record()
        for c in rec["cells"]:
            c["reads"][0][1] += 0.06  # a shared error past the 50 mV budget
        self.assertIn("off the reference curve", run.check(rec, None)[0])

    def test_read_counts_charge_skipped_and_quarantined_cells(self):
        rec = self.record()
        rec["sweep"] = [-19.0, -7.0]
        rec["envs"] = 2
        ok = [-19.5, 0.1, True, True, 0, 0.0, -1]
        rec["cells"] = [
            cell(0, 0, 1, 0, 0, 0, [list(ok), list(ok)]),
            cell(0, 1, 1, 0, 0, 0, [list(ok), [0, 0, False, False, 0, 0, -1]]),
            cell(1, 0, 1, 0, 0, 0, [list(ok), list(ok)]),  # quarantined
            cell(1, 1, -1, 0, 0, 0, []),                     # never ran
        ]
        rec["quarantined_cells"] = [[1, 0]]
        # 2 dies x 2 corners x 2 points; ok: 2 + 1 (+ 2 quarantined, not ok)
        self.assertEqual(run.read_counts(rec), (8, 5))

    def test_default_seed_series_tolerance(self):
        rec = self.record()
        series = M.figure_series(rec)
        self.assertEqual(run.check(rec, series), [])
        moved = {k: [v + 0.02 for v in vals] for k, vals in series.items()}
        self.assertEqual(len(run.check(rec, moved)), 1)


class Smoke(unittest.TestCase):
    def test_every_workload_at_minimal_size(self):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                              capture_output=True, text=True, env=dict(os.environ))
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        self.assertEqual(proc.stderr.count("correct=True"), 3, proc.stderr[-3000:])


if __name__ == "__main__":
    unittest.main()
