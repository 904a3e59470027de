"""The four workloads of the end-to-end benchmark.

Each workload function takes a :class:`Context` and returns a
:class:`~harness.Result`. The gated end-to-end metrics are the same
five on every workload (:data:`END_TO_END`); what an "operation" is
differs:

=============  ===========================  ==============================
workload       operation                    ``wall_s`` (fixed unit of work)
=============  ===========================  ==============================
fig11-cold     one (dataset, algorithm)     one cold ``all_cells()``
               cell of the comparison
serve-read     one query, open loop         closed-loop batch of queries
serve-mutate   one query or ``/mutate``,    closed-loop batch of the same
               open loop                    mix
micro-hw       one MicroGaaSX kernel call   one repetition (rebuild + 9
                                            kernel calls)
=============  ===========================  ==============================
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import loadgen
import oracles
import tracing
from harness import (
    HERE,
    Daemon,
    Result,
    Workspace,
    child_env,
    median,
    percentile,
    stop_process,
    tail_label,
    tail_point,
)

#: (name, unit, better) of the gated metrics every workload reports.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("rss_mb", "MiB", "lower"),
    ("op_p50_s", "s", "lower"),
    ("op_tail_s", "s", "lower"),
)

#: (name, unit, better) of the traced per-layer metrics. Every workload
#: reports all of them; a layer the workload never enters reads 0.
PER_LAYER = tuple(
    (f"{layer}_s", "s", "lower")
    for layer in tracing.LAYERS if layer != "serve.http"
) + (
    ("http.self_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("engine.runs", "count", "lower"),
    ("events.cam_searches", "count", "lower"),
    ("events.mac_ops", "count", "lower"),
    ("events.mac_rows", "count", "lower"),
    ("reuse.hits", "count", "higher"),
    ("reuse.misses", "count", "lower"),
    ("reuse.hit_rate", "ratio", "higher"),
    ("reuse.carried", "count", "higher"),
    ("reuse.invalidated", "count", "lower"),
    ("xbar.occupancy", "ratio", "higher"),
    ("xbar.rows_per_mac", "rows", "higher"),
    ("hw.imbalance", "ratio", "lower"),
    ("hw.active_frac", "ratio", "higher"),
    ("serve.coalesced", "count", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.errors", "count", "lower"),
    ("pool.hits", "count", "higher"),
    ("pool.misses", "count", "lower"),
    ("pool.evictions", "count", "lower"),
    ("loadgen.lag_p95_s", "s", "lower"),
    ("modelled.time_s", "modelled_s", "lower"),
    ("modelled.energy_j", "J", "lower"),
    ("trace.attributed_frac", "ratio", "higher"),
)

#: Paper figures printed beside the modelled geomeans (not gated).
PAPER_FIG11_SPEEDUP = 7.7
PAPER_FIG12_ENERGY = 22.0

#: Traffic and batch sizes per dataset profile (``tiny`` is smoke mode).
SIZES = {
    "bench": {"inserts": 64, "deletes": 32},
    "tiny": {"inserts": 4, "deletes": 2},
}

READ_RATE_QPS = 10.0
MUTATE_RATE_QPS = 20.0
#: Closed-loop batch size per second of ``--seconds``: about five
#: seconds of work on each serve workload at bench scale.
READ_CLOSED_PER_S = 10
MUTATE_CLOSED_PER_S = 25
READ_SHARES = {"pagerank": 0.35, "bfs": 0.25, "sssp": 0.25, "wcc": 0.10,
               "cf": 0.05}
READ_PARAMS = {"pagerank": {"iterations": 10},
               "cf": {"num_features": 8, "epochs": 1}}
#: No WCC reads here: after two mutations with no WCC between them the
#: daemon's warm-start WCC misses the second batch and returns wrong
#: components (see README.md, "Findings"), so its share goes to the
#: other two reads.
MUTATE_SHARES = {"mutate": 0.20, "pagerank": 0.40, "bfs": 0.40}
MUTATE_PARAMS = {"pagerank": {"iterations": 30, "tolerance": 1e-5,
                              "incremental": True}}

#: Failure messages kept per run (the counts are always complete).
MAX_MESSAGES = 10

CHILD_TIMEOUT_S = 170.0

#: Host seconds one repetition takes at bench scale on a 2-core AMD EPYC
#: host. Repetition counts are ``--seconds`` over these, so runs with the
#: same ``--seconds`` do the same work however fast the code gets.
FIG11_REP_S = 16.0
MICRO_REP_S = 2.5


@dataclass
class Context:
    seed: int
    seconds: float
    traced: bool
    profile: str
    setups: int
    workspace: Workspace
    spans_dir: Optional[Path] = None


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _note_failure(result: Result, message: str) -> None:
    result.failed += 1
    if len(result.failures) < MAX_MESSAGES:
        result.failures.append(message)


def _latency_metrics(result: Result, latencies: Sequence[float]) -> None:
    q = tail_point(len(latencies))
    result.metrics["op_p50_s"] = median(latencies)
    result.metrics["op_tail_s"] = percentile(latencies, q)
    result.notes.append(
        f"op_tail_s is the {tail_label(q)} of {len(latencies)} operations"
    )


def _layer_metrics(summary: dict) -> Dict[str, float]:
    """Per-layer metrics every traced process yields the same way."""
    from repro.config import ArchConfig

    out = {name: 0.0 for name, _unit, _better in PER_LAYER}
    for layer, seconds in tracing.layer_self_times(summary).items():
        if layer != "serve.http":
            out[f"{layer}_s"] = seconds
    events = summary["events"]
    out["events.cam_searches"] = events["cam_searches"]
    out["events.mac_ops"] = events["mac_ops"]
    out["events.mac_rows"] = events["mac_rows_accumulated"]
    if events["mac_ops"]:
        rows = events["mac_rows_accumulated"] / events["mac_ops"]
        out["xbar.rows_per_mac"] = rows
        out["xbar.occupancy"] = rows / ArchConfig().mac_accumulate_limit
    out["engine.runs"] = sum(
        count for name, count in summary["calls"].items()
        if name.startswith("GaaSXEngine.") and name != "GaaSXEngine.run"
    )
    out["cache.hits"] = summary["cache"]["hits"]
    out["cache.misses"] = summary["cache"]["misses"]
    return out


def _reuse_metrics(out: Dict[str, float], reuse: dict) -> None:
    out["reuse.hits"] = reuse["hits"]
    out["reuse.misses"] = reuse["misses"]
    out["reuse.hit_rate"] = reuse["hit_rate"]


def _spans_path(ctx: Context, workload: str) -> Optional[Path]:
    """Where a traced run writes its spans (only with ``--out``)."""
    if not ctx.traced or ctx.spans_dir is None:
        return None
    ctx.spans_dir.mkdir(parents=True, exist_ok=True)
    return ctx.spans_dir / f"spans-{workload}.jsonl"


def _geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# Batch workloads: a fresh child interpreter per repetition
# ----------------------------------------------------------------------
class Child:
    """One ``batch_child.py`` process; construction returns at READY."""

    def __init__(self, ctx: Context, workload: str, label: str,
                 setup_only: bool = False, reps: int = 1) -> None:
        self.dir = ctx.workspace.fresh(label)
        self.summary_path = self.dir / "trace-summary.json"
        cmd = [sys.executable, str(HERE / "batch_child.py"),
               "--workload", workload, "--profile", ctx.profile,
               "--reps", str(reps)]
        if setup_only:
            cmd.append("--setup-only")
        elif ctx.traced:
            cmd += ["--trace-summary", str(self.summary_path)]
            spans = _spans_path(ctx, workload)
            if spans is not None:
                cmd += ["--trace-spans", str(spans)]
        self.stderr_path = self.dir / "child.stderr"
        self._stderr = open(self.stderr_path, "w", encoding="utf-8")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=str(self.dir), env=child_env(self.dir),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - start
            if line.strip() != "READY":
                raise RuntimeError(self._failure("never became ready"))
        except BaseException:
            self.close()
            raise

    def _failure(self, what: str) -> str:
        self.proc.wait()
        tail = self.stderr_path.read_text(errors="replace").splitlines()
        return f"batch child {what} (exit {self.proc.returncode}):\n" + \
            "\n".join(tail[-20:])

    def result(self) -> dict:
        """Wait for exit; the child's JSON result (``{}`` if none)."""
        try:
            out, _ = self.proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.close()
            raise RuntimeError("batch child timed out") from None
        finally:
            self._stderr.close()
        if self.proc.returncode != 0:
            raise RuntimeError(self._failure("failed"))
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}

    def close(self) -> None:
        stop_process(self.proc)
        self._stderr.close()


def _setup_samples(ctx: Context, workload: str) -> List[float]:
    """Set-up times of ``ctx.setups - 1`` set-up-only children."""
    samples = []
    for i in range(ctx.setups - 1):
        child = Child(ctx, workload, f"setup{i}", setup_only=True)
        samples.append(child.setup_s)
        child.result()
    return samples


def fig11_cold(ctx: Context) -> Result:
    """Cold regeneration of Figures 11/12's comparison matrix."""
    result = Result("fig11-cold", ctx.traced)
    setups = _setup_samples(ctx, "fig11-cold")
    runs = []
    reps = 1 if ctx.traced else max(1, round(ctx.seconds / FIG11_REP_S))
    for rep in range(reps):
        child = Child(ctx, "fig11-cold", f"rep{rep}")
        setups.append(child.setup_s)
        runs.append(child.result())
    walls = [run["reps"][0]["wall_s"] for run in runs]
    ops = [s for run in runs for s in run["reps"][0]["op_s"]]
    result.metrics["setup_s"] = median(setups)
    result.metrics["wall_s"] = median(walls)
    result.metrics["rss_mb"] = median([run["rss_mb"] for run in runs])
    _latency_metrics(result, ops)

    cells = runs[0]["cells"]
    result.attempted = sum(len(run["cells"]) for run in runs)
    for index, run in enumerate(runs):
        if run["cells"] != cells:
            _note_failure(result, f"repetition {index} modelled different cells")
    for cell in cells:
        if not cell["speedup"] > 1.0:
            _note_failure(
                result, f"GraphR beats GaaS-X on {cell['dataset']} "
                f"{cell['algorithm']} ({cell['speedup']:.2f}x)"
            )
    speedup = _geomean([c["speedup"] for c in cells])
    energy = _geomean([c["energy_savings"] for c in cells])
    bands = {
        algorithm: _geomean(
            [c["speedup"] for c in cells if c["algorithm"] == algorithm]
        )
        for algorithm in ("pagerank", "bfs", "sssp")
    }
    if ctx.profile == "bench":
        # EXPERIMENTS.md's shape claims hold at bench scale, not on the
        # toy graphs smoke mode uses.
        if bands["pagerank"] >= min(bands["bfs"], bands["sssp"]):
            result.fail(f"PageRank is not the lowest speedup band: {bands}")
        if not PAPER_FIG11_SPEEDUP / 2 <= speedup <= PAPER_FIG11_SPEEDUP * 2:
            result.fail(
                f"Fig 11 geomean {speedup:.2f}x is not within 2x of "
                f"{PAPER_FIG11_SPEEDUP}x"
            )
    modelled_s = sum(c["gaasx_s"] for c in cells)
    modelled_j = sum(c["gaasx_j"] for c in cells)
    result.info.update({
        "repetitions": (len(runs), "count"),
        "fig11.speedup_geomean": (speedup, "x"),
        "fig11.paper_error": (speedup / PAPER_FIG11_SPEEDUP - 1.0, "ratio"),
        "fig12.energy_geomean": (energy, "x"),
        "fig12.paper_error": (energy / PAPER_FIG12_ENERGY - 1.0, "ratio"),
        "modelled_s": (modelled_s, "modelled_s"),
        "modelled_j": (modelled_j, "J"),
    })
    result.notes.append(
        f"Fig 11 speedup geomean {speedup:.2f}x (paper "
        f"{PAPER_FIG11_SPEEDUP}x); Fig 12 energy geomean {energy:.1f}x "
        f"(paper {PAPER_FIG12_ENERGY:g}x); bands {bands}"
    )
    if ctx.traced:
        summary = json.loads(child.summary_path.read_text())
        summary["cache"] = runs[0]["cache"]
        layers = _layer_metrics(summary)
        layers["modelled.time_s"] = modelled_s
        layers["modelled.energy_j"] = modelled_j
        layers["trace.attributed_frac"] = (
            summary["root_s"].get("window", 0.0) / walls[0]
        )
        result.per_layer = layers
    return result


def micro_hw(ctx: Context) -> Result:
    """Array-level simulator repetitions on WV."""
    result = Result("micro-hw", ctx.traced)
    setups = _setup_samples(ctx, "micro-hw")
    child = Child(ctx, "micro-hw", "run",
                  reps=max(2, round(ctx.seconds / MICRO_REP_S)))
    setups.append(child.setup_s)
    run = child.result()
    walls = [rep["wall_s"] for rep in run["reps"]]
    result.metrics["setup_s"] = median(setups)
    result.metrics["wall_s"] = median(walls)
    result.metrics["rss_mb"] = run["rss_mb"]
    _latency_metrics(result, [s for rep in run["reps"] for s in rep["op_s"]])
    result.attempted = run["ops_attempted"]
    result.failed = run["ops_failed"]
    result.failures.extend(run["failures"][:MAX_MESSAGES])
    events = run["events"]
    sim_ops = events["cam_searches"] + events["mac_ops"]
    result.info.update({
        "repetitions": (len(walls), "count"),
        "sim_ops": (sim_ops, "count"),
        "sim_ops_per_s": (sim_ops / median(walls), "1/s"),
        "modelled_s": (run["modelled_s"], "modelled_s"),
        "modelled_j": (run["modelled_j"], "J"),
        "occupancy": (run["occupancy"]["occupancy"], "ratio"),
        "hw.imbalance": (run["hw"]["imbalance"], "ratio"),
    })
    result.notes.append(f"sources {run['sources']}; {run['hw']['arrays']} "
                        f"arrays registered per repetition")
    if ctx.traced:
        summary = json.loads(child.summary_path.read_text())
        summary["cache"] = run["cache"]
        layers = _layer_metrics(summary)
        _reuse_metrics(layers, run["reuse"])
        layers["hw.imbalance"] = run["hw"]["imbalance"]
        layers["hw.active_frac"] = run["hw"]["active_frac"]
        layers["modelled.time_s"] = run["modelled_s"]
        layers["modelled.energy_j"] = run["modelled_j"]
        layers["trace.attributed_frac"] = (
            summary["root_s"].get("window", 0.0) / sum(walls)
        )
        result.per_layer = layers
    return result


# ----------------------------------------------------------------------
# Serve workloads: one daemon under load from this process
# ----------------------------------------------------------------------
def _daemon_setups(ctx: Context, preload, label: str) -> List[float]:
    samples = []
    for i in range(ctx.setups - 1):
        daemon = Daemon(ctx.workspace.fresh(f"{label}-setup{i}"), preload,
                        ctx.profile)
        samples.append(daemon.setup_s)
        daemon.stop()
    return samples


def _num_vertices(dataset: str, profile: str) -> int:
    from repro.graphs.datasets import DATASETS

    return DATASETS[dataset].sizes(profile)[0]


def _serve_layers(
    result: Result, daemon: Daemon, outcomes: Sequence[loadgen.Outcome],
    stats: dict,
) -> Dict[str, float]:
    summary = daemon.trace_summary()
    layers = _layer_metrics(summary)
    _reuse_metrics(layers, stats["reuse"])
    layers["modelled.time_s"] = result.info["modelled_s"][0]
    layers["modelled.energy_j"] = result.info["modelled_j"][0]
    layers["loadgen.lag_p95_s"] = result.info["loadgen.lag_p95_s"][0]
    server_s = [summary["trace_s"].get(o.trace_id, 0.0) for o in outcomes]
    client_s = [o.client_s for o in outcomes]
    layers["http.self_s"] = sum(
        max(c - s, 0.0) for c, s in zip(client_s, server_s)
    )
    layers["trace.attributed_frac"] = sum(server_s) / sum(client_s)
    layers["serve.coalesced"] = stats["coalesced"]
    layers["serve.shed"] = stats["shed"]
    layers["serve.errors"] = stats["errors"]
    for name in ("hits", "misses", "evictions"):
        layers[f"pool.{name}"] = stats["pool"][name]
    return layers


def _modelled_info(result: Result, outcomes) -> None:
    """Modelled GaaS-X time and energy summed over the served queries."""
    queries = [o.payload["modelled"] for o in outcomes
               if o.ok and o.request.path == "/query"]
    result.info["modelled_s"] = (
        sum(m["total_s"] for m in queries), "modelled_s"
    )
    result.info["modelled_j"] = (sum(m["energy_j"] for m in queries), "J")


def _serve_common(
    result: Result,
    setups: List[float],
    open_outcomes: Sequence[loadgen.Outcome],
    closed_outcomes: Sequence[loadgen.Outcome],
    closed_wall: float,
    rss_mb: float,
) -> None:
    result.metrics["setup_s"] = median(setups)
    result.metrics["wall_s"] = closed_wall
    result.metrics["rss_mb"] = rss_mb
    _latency_metrics(result, [o.latency for o in open_outcomes])
    lag = [o.lag for o in open_outcomes]
    lag_p95 = percentile(lag, 95.0)
    result.info["loadgen.lag_p95_s"] = (lag_p95, "s")
    result.info["capacity_qps"] = (len(closed_outcomes) / closed_wall, "1/s")
    if lag_p95 > 0.005:
        result.notes.append(
            f"load generator ran late: lag p95 {lag_p95 * 1e3:.1f} ms"
        )


def _latency_info(result: Result, prefix: str, outcomes) -> None:
    latencies = [o.latency for o in outcomes]
    if not latencies:
        return
    q = tail_point(len(latencies))
    result.info[f"{prefix}_p50_s"] = (median(latencies), "s")
    result.info[f"{prefix}_{tail_label(q)}_s"] = (
        percentile(latencies, q), "s"
    )


def serve_read(ctx: Context) -> Result:
    """Read-only queries over SD/AZ (+ NF CF) on a warm daemon."""
    from repro.graphs.datasets import load_dataset

    result = Result("serve-read", ctx.traced)
    preload = ("SD", "AZ", "NF")
    rng = np.random.default_rng(ctx.seed)
    shape = loadgen.shape_rng()
    pools = {key: loadgen.source_pool(rng, _num_vertices(key, ctx.profile))
             for key in ("SD", "AZ")}

    def mix(n: int) -> List[loadgen.Request]:
        return loadgen.read_mix(shape, n, READ_SHARES, ("SD", "AZ"), pools,
                                READ_PARAMS, ctx.profile, cf_dataset="NF")

    n_open = int(round(READ_RATE_QPS * ctx.seconds))
    open_requests = mix(n_open)
    offsets = loadgen.arrivals(shape, n_open, ctx.seconds)
    closed_requests = mix(int(READ_CLOSED_PER_S * ctx.seconds))
    ids = loadgen.TraceIds(ctx.seed)

    setups = _daemon_setups(ctx, preload, "read")
    daemon = Daemon(ctx.workspace.fresh("read"), preload, ctx.profile,
                    traced=ctx.traced,
                    spans_path=_spans_path(ctx, result.workload))
    setups.append(daemon.setup_s)
    try:
        open_out = loadgen.run_open(daemon.port, open_requests, offsets, ids)
        closed_out, closed_wall = loadgen.run_closed(
            daemon.port, closed_requests, ids
        )
        stats = daemon.get_json("/stats")
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    _serve_common(result, setups, open_out, closed_out, closed_wall, rss)
    _latency_info(result, "read", open_out)

    # Verification, after the daemon is gone.
    refs = {key: oracles.References(load_dataset(key, ctx.profile))
            for key in ("SD", "AZ")}
    netflix = load_dataset("NF", ctx.profile)
    cf_sums: Dict[str, str] = {}
    checksums: Dict[str, str] = {}
    outcomes = list(open_out) + list(closed_out)
    result.attempted = len(outcomes)
    for outcome in outcomes:
        body = outcome.request.body
        what = f"{body['algorithm']} on {body['dataset']} {body['params']}"
        if not outcome.ok:
            _note_failure(result, f"{what}: HTTP {outcome.status} "
                                  f"{outcome.error}")
            continue
        payload = outcome.payload["payload"]
        identity = json.dumps(body, sort_keys=True)
        if checksums.setdefault(identity, payload["checksum"]) != \
                payload["checksum"]:
            _note_failure(result, f"{what}: answers differ between requests")
            continue
        if body["algorithm"] == "cf":
            params = body["params"]
            key = json.dumps(params, sort_keys=True)
            if key not in cf_sums:
                cf_sums[key] = oracles.cf_checksum(netflix, params)
            problems = oracles.check_cf(payload, netflix, params, cf_sums[key])
        else:
            problems = oracles.check_query(payload, body, refs[body["dataset"]])
        if problems:
            _note_failure(result, f"{what}: {'; '.join(problems)}")
    result.info["error_frac"] = (result.failed / result.attempted, "ratio")
    _modelled_info(result, outcomes)
    if ctx.traced:
        result.per_layer = _serve_layers(result, daemon, outcomes, stats)
    return result


def _mutate_lane(request: loadgen.Request) -> int:
    """Connection 0 carries every /mutate and incremental PageRank, in
    order (a client updating the graph and re-ranking it); connection 1
    the BFS traversals.

    Two /mutate requests in flight together can lose a batch (README.md,
    "Findings"). Keeping each PageRank behind the writes scheduled before
    it also fixes which PageRanks follow a mutation, so every run does
    the same incremental work."""
    return 0 if request.label in ("mutate", "pagerank") else 1


def serve_mutate(ctx: Context) -> Result:
    """Reads beside ``/mutate`` writes on a warm WV daemon."""
    from repro.graphs.datasets import load_dataset
    from repro.serve.protocol import QueryRequest, query_key

    result = Result("serve-mutate", ctx.traced)
    dataset = "WV"
    sizes = SIZES[ctx.profile]
    base = load_dataset(dataset, ctx.profile)
    rng = np.random.default_rng(ctx.seed)
    shape = loadgen.shape_rng()
    pool = loadgen.source_pool(rng, base.num_vertices)
    n_open = int(round(MUTATE_RATE_QPS * ctx.seconds))
    n_closed = int(MUTATE_CLOSED_PER_S * ctx.seconds)
    n_writes = (loadgen.exact_counts(n_open, MUTATE_SHARES)["mutate"]
                + loadgen.exact_counts(n_closed, MUTATE_SHARES)["mutate"])
    all_batches = loadgen.mutation_batches(
        rng, base, n_writes, sizes["inserts"], sizes["deletes"]
    )
    batches = iter(all_batches)
    batch_of: Dict[int, tuple] = {}  # id(request) -> its edge batch

    def mix(n: int) -> List[loadgen.Request]:
        counts = loadgen.exact_counts(n, MUTATE_SHARES)
        requests = loadgen.read_mix(
            shape, n - counts["mutate"],
            {k: v for k, v in MUTATE_SHARES.items() if k != "mutate"},
            (dataset,), {dataset: pool}, MUTATE_PARAMS, ctx.profile,
        )
        for _ in range(counts["mutate"]):
            batch = next(batches)
            requests.append(
                loadgen.mutate_request(dataset, ctx.profile, batch)
            )
            batch_of[id(requests[-1])] = batch
        return [requests[i] for i in shape.permutation(len(requests))]

    open_requests = mix(n_open)
    offsets = loadgen.arrivals(shape, n_open, ctx.seconds)
    closed_requests = mix(n_closed)
    final_requests = [
        loadgen.Request("/query", {"dataset": dataset, "algorithm": a,
                                   "params": p, "profile": ctx.profile}, a)
        for a, p in [("pagerank", MUTATE_PARAMS["pagerank"])]
        + [("bfs", {"source": int(s)}) for s in pool[:4]]
    ]
    ids = loadgen.TraceIds(ctx.seed)

    setups = _daemon_setups(ctx, (dataset,), "mutate")
    daemon = Daemon(ctx.workspace.fresh("mutate"), (dataset,), ctx.profile,
                    traced=ctx.traced,
                    spans_path=_spans_path(ctx, result.workload))
    setups.append(daemon.setup_s)
    try:
        initial_key = daemon.get_json("/stats")["pool"]["sessions"][0][
            "content_key"]
        open_out = loadgen.run_open(daemon.port, open_requests, offsets, ids,
                                    lane_of=_mutate_lane)
        closed_out, closed_wall = loadgen.run_closed(
            daemon.port, closed_requests, ids, lane_of=_mutate_lane
        )
        final_out, _ = loadgen.run_closed(
            daemon.port, final_requests, ids, lane_of=_mutate_lane
        )
        stats = daemon.get_json("/stats")
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    _serve_common(result, setups, open_out, closed_out, closed_wall, rss)
    _latency_info(result, "read",
                  [o for o in open_out if o.request.label != "mutate"])
    _latency_info(result, "write",
                  [o for o in open_out if o.request.label == "mutate"])

    # Verification. Rebuild every graph version the daemon went
    # through, in the order its /mutate responses report, and check each
    # read against a version it can have run on.
    outcomes = list(open_out) + list(closed_out) + list(final_out)
    result.attempted = len(outcomes)
    final_ids = {id(o) for o in final_out}
    writes = []
    for outcome in outcomes:
        if outcome.request.label != "mutate":
            continue
        if not outcome.ok:
            _note_failure(result, f"mutate: HTTP {outcome.status} "
                                  f"{outcome.error}")
            continue
        writes.append((outcome.payload["mutations_applied"], outcome))
    writes.sort(key=lambda item: item[0])
    keys = [initial_key]
    graphs = [base]
    for applied, outcome in writes:
        payload = outcome.payload
        if applied != len(keys) or payload["old_content_key"] != keys[-1]:
            result.fail(f"mutation chain broken at write {applied}")
            break
        ins, dels = batch_of[id(outcome.request)]
        graphs.append(graphs[-1].with_edges(inserts=ins, deletes=dels))
        keys.append(payload["content_key"])
        if payload["num_edges"] != graphs[-1].num_edges:
            result.fail(f"write {applied} left {payload['num_edges']} edges, "
                        f"expected {graphs[-1].num_edges}: a batch was lost")
            break
    final = base.with_edges(
        inserts=np.concatenate([b[0] for b in all_batches]),
        deletes=np.concatenate([b[1] for b in all_batches]),
    )
    n = base.num_vertices

    def edge_set(graph) -> set:
        return set((graph.edges.rows * n + graph.edges.cols).tolist())

    if len(graphs) == len(all_batches) + 1 and \
            edge_set(graphs[-1]) != edge_set(final):
        result.fail("replayed mutation chain disagrees with the union of "
                    "all batches")
    refs = [oracles.References(graph) for graph in graphs]
    final_refs = oracles.References(final)
    version_of: Dict[str, int] = {}
    reads = [o for o in outcomes if o.request.label != "mutate"]
    for outcome in reads:
        body = outcome.request.body
        what = f"{body['algorithm']} {body['params']}"
        if not outcome.ok:
            _note_failure(result, f"{what}: HTTP {outcome.status} "
                                  f"{outcome.error}")
            continue
        query = QueryRequest.from_dict(body)
        key = outcome.payload["key"]
        if key not in version_of:
            for index, content_key in enumerate(keys):
                version_of[query_key(content_key, query)] = index
        if key not in version_of:
            _note_failure(result, f"{what}: ran on no known graph version")
            continue
        version = version_of[key]
        answer = outcome.payload["payload"]
        if id(outcome) in final_ids:
            if version != len(keys) - 1:
                _note_failure(result, f"{what}: final read saw a stale graph")
                continue
            problems = oracles.check_query(answer, body, final_refs)
        else:
            # The daemon keys a query on the session's graph before the
            # query waits for the session lock, and that lock is keyed
            # on the graph too, so a read can run on any version
            # committed before it finished: at most one past the last
            # write acknowledged before its response.
            acked = [applied for applied, w in writes
                     if w.done <= outcome.done]
            newest = max(acked, default=0) + 1
            candidates = range(version, min(newest, len(refs) - 1) + 1)
            problems = []
            for candidate in candidates:
                problems = oracles.check_query(answer, body, refs[candidate])
                if not problems:
                    break
        if problems:
            _note_failure(result, f"{what} keyed on version {version}: "
                                  f"{'; '.join(problems)}")
    result.info["error_frac"] = (result.failed / result.attempted, "ratio")
    result.info["graph_versions"] = (len(keys), "count")
    carried = sum(o.payload["reuse_carried"] for _a, o in writes)
    invalidated = sum(o.payload["reuse_invalidated"] for _a, o in writes)
    result.info["reuse.carried"] = (carried, "count")
    _modelled_info(result, outcomes)
    if ctx.traced:
        layers = _serve_layers(result, daemon, outcomes, stats)
        layers["reuse.carried"] = carried
        layers["reuse.invalidated"] = invalidated
        result.per_layer = layers
    return result


WORKLOADS: Dict[str, Callable[[Context], Result]] = {
    "fig11-cold": fig11_cold,
    "serve-read": serve_read,
    "serve-mutate": serve_mutate,
    "micro-hw": micro_hw,
}
