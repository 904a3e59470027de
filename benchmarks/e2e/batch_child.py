"""The process under test for the batch workloads.

Run by ``run.py`` in a fresh interpreter with empty caches::

    python batch_child.py --workload fig11-cold|micro-hw --profile bench
        [--reps N] [--setup-only] [--trace-summary F --trace-spans F]

It imports repro and loads its inputs (set-up), prints ``READY``, runs
the timed work, checks it, and prints one JSON object as its last
stdout line. ``--setup-only`` exits after ``READY``: the parent times
several set-ups per run and reports their median.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _ready() -> None:
    print("READY", flush=True)


def _peak_rss_mb() -> float:
    """This process's peak resident set so far, in MiB.

    ``VmHWM`` belongs to the address space ``exec`` created, unlike
    ``ru_maxrss``, which also counts the parent's pages from the fork.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def fig11_cold(args, recorder) -> dict:
    from repro.experiments.harness import ALGORITHMS, comparison_matrix

    _ready()
    if args.setup_only:
        return {}
    if recorder is not None:
        recorder.phase = "window"
    start = time.perf_counter()
    matrix = comparison_matrix(args.profile)
    op_s = []
    # all_cells() order, one cell at a time so each cell is timed.
    for algorithm in ALGORITHMS:
        for dataset in matrix.datasets:
            t0 = time.perf_counter()
            matrix.cell(dataset, algorithm)
            op_s.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    rss_mb = _peak_rss_mb()
    if recorder is not None:
        recorder.phase = "verify"
    cells = [
        {
            "dataset": cell.dataset,
            "algorithm": cell.algorithm,
            "speedup": cell.speedup_vs_graphr,
            "energy_savings": cell.energy_savings_vs_graphr,
            "gaasx_s": cell.gaasx.total_time_s,
            "gaasx_j": cell.gaasx.total_energy_j,
        }
        for cell in matrix.all_cells()
    ]
    return {"reps": [{"wall_s": wall, "op_s": op_s}], "cells": cells,
            "rss_mb": rss_mb}


def micro_hw(args, recorder) -> dict:
    import numpy as np

    from repro.baselines import reference
    from repro.core.engine import GaaSXEngine
    from repro.core.micro import MicroGaaSX
    from repro.core.reuse import get_reuse_cache, reset_reuse_cache
    from repro.events import EventLog
    from repro.graphs.datasets import load_dataset
    from repro.obs.hw import HwMonitor, check_parity, utilization_summary

    graph = load_dataset("WV", args.profile)
    degrees = graph.out_degrees()
    sources = [int(v) for v in np.argsort(-degrees, kind="stable")[:4]]
    _ready()
    if args.setup_only:
        return {}

    if recorder is not None:
        recorder.phase = "window"
    reps = []
    outputs = []
    for _rep in range(args.reps):
        t0 = time.perf_counter()
        reset_reuse_cache()
        monitor = HwMonitor(16)
        micro = MicroGaaSX(graph, hw=monitor)
        op_s, results = [], []
        t = time.perf_counter()
        results.append(("pagerank", None, micro.pagerank(iterations=10)))
        op_s.append(time.perf_counter() - t)
        for source in sources:
            for kernel in ("sssp", "bfs"):
                t = time.perf_counter()
                results.append(
                    (kernel, source, getattr(micro, kernel)(source))
                )
                op_s.append(time.perf_counter() - t)
        wall = time.perf_counter() - t0
        reps.append({"wall_s": wall, "op_s": op_s})
        outputs.append((monitor, results))
    rss_mb = _peak_rss_mb()
    reuse = get_reuse_cache().describe()
    if recorder is not None:
        recorder.phase = "verify"

    # Independent answers, and the vectorized engine's EventLogs on the
    # same kernels (the parity reference and the modelled clock).
    engine = GaaSXEngine(graph)
    expected = {("pagerank", None): reference.pagerank(graph, iterations=10)}
    engine_runs = {("pagerank", None): engine.pagerank(iterations=10)}
    for source in sources:
        expected[("sssp", source)] = reference.sssp(graph, source)
        expected[("bfs", source)] = reference.bfs(graph, source)
        engine_runs[("sssp", source)] = engine.sssp(source)
        engine_runs[("bfs", source)] = engine.bfs(source)

    failures = []
    failed_ops = 0
    rep_events = []
    for index, (monitor, results) in enumerate(outputs):
        merged = EventLog()
        for kernel, source, (values, events) in results:
            merged.merge(events)
            key = (kernel, source)
            problems = []
            if not np.allclose(values, expected[key], rtol=1e-9, atol=1e-9):
                problems.append("result differs from the reference")
            if not events.counters_equal(engine_runs[key].stats.events):
                problems.append("EventLog differs from GaaSXEngine's")
            if problems:
                failed_ops += 1
                failures.append(
                    f"rep {index} {kernel}({source}): " + "; ".join(problems)
                )
        parity = check_parity(monitor, merged)
        if not parity["ok"]:
            failures.append(
                f"rep {index}: hw counters disagree with the EventLog: "
                f"{sorted(parity['mismatches'])}"
            )
        rep_events.append(merged.as_dict())
    if any(events != rep_events[0] for events in rep_events):
        failures.append("repetitions charged different events")
    first_rep = EventLog()
    for _kernel, _source, (_values, events) in outputs[0][1]:
        first_rep.merge(events)
    utilization = utilization_summary(outputs[0][0])
    return {
        "reps": reps,
        "ops_attempted": sum(len(results) for _m, results in outputs),
        "ops_failed": failed_ops,
        "failures": failures,
        "sources": sources,
        "events": rep_events[0],
        "occupancy": first_rep.rows_occupancy(16),
        "modelled_s": sum(r.stats.total_time_s for r in engine_runs.values()),
        "modelled_j": sum(
            r.stats.total_energy_j for r in engine_runs.values()
        ),
        "hw": {
            "imbalance": utilization["imbalance"],
            "active_frac": utilization["active_frac"],
            "arrays": utilization["arrays"],
        },
        "reuse": reuse,
        "rss_mb": rss_mb,
    }


WORKLOADS = {"fig11-cold": fig11_cold, "micro-hw": micro_hw}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--profile", default="bench")
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-summary", default=None)
    parser.add_argument("--trace-spans", default=None)
    args = parser.parse_args(argv)

    recorder = None
    if args.trace_summary:
        import tracing

        recorder = tracing.Recorder()
        missing = tracing.install(recorder)
        if missing:
            print(f"trace targets not found: {missing}", file=sys.stderr)
    import repro  # noqa: F401  (set-up cost: the package import)

    out = WORKLOADS[args.workload](args, recorder)
    if args.setup_only:
        return 0
    from repro.core.cache import get_cache

    out["cache"] = {
        "hits": get_cache().stats.hits,
        "misses": get_cache().stats.grid_misses
        + get_cache().stats.layout_misses,
    }
    if recorder is not None:
        with open(args.trace_summary, "w", encoding="utf-8") as fh:
            json.dump(recorder.summary(), fh)
        if args.trace_spans:
            recorder.write_spans(args.trace_spans)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
