"""Seeded serve traffic and the HTTP load generator.

A workload's traffic *shape* — the order of request kinds, the Poisson
arrival times and which pool slot each traversal uses — is drawn from a
fixed generator (:data:`SHAPE_SEED`), so every run does the same kind
of work at the same moments. The workload seed draws the *inputs*:
which hub vertices form the source pools and which edges each mutation
batch inserts and deletes. The program under test receives the
generated requests and nothing else.

All load comes from this one process over at most :data:`CONNECTIONS`
concurrent connections (the daemon closes each connection after one
response, so a "connection" here is one request in flight):

* **open loop** — requests are due on a fixed schedule whatever the
  daemon does; latency is timed from each request's due time, so a
  stall also charges the requests queued behind it. ``lag`` is how
  late the generator itself sent a request after it was due and a
  connection was free.
* **closed loop** — each connection sends its next request as soon as
  the previous response arrives; the batch's wall time gives capacity.
"""

from __future__ import annotations

import gc
import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Concurrent client connections; the host has two cores.
CONNECTIONS = 2

#: BFS/SSSP sources are drawn from this many low vertex ids: degree-
#: sorted relabelling makes them the graph's hubs, so every traversal
#: covers the giant component and costs about the same.
SOURCE_SPAN = 256
POOL_SIZE = 32

#: Seed of the traffic-shape generator (see the module docstring).
SHAPE_SEED = 1120


def shape_rng() -> np.random.Generator:
    return np.random.default_rng(SHAPE_SEED)


@dataclass
class Request:
    path: str  # "/query" or "/mutate"
    body: dict
    label: str  # algorithm name, or "mutate"


@dataclass
class Outcome:
    request: Request
    trace_id: str
    status: int
    payload: Optional[dict]
    error: Optional[str]
    due: float
    sent: float
    done: float
    lag: float

    @property
    def latency(self) -> float:
        """Due time to response (open loop) or send to response."""
        return self.done - self.due

    @property
    def client_s(self) -> float:
        """Send to response: the span the server-side trace explains."""
        return self.done - self.sent

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.payload is not None


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def source_pool(rng: np.random.Generator, num_vertices: int) -> np.ndarray:
    span = min(SOURCE_SPAN, num_vertices)
    return rng.choice(span, size=min(POOL_SIZE, span), replace=False)


def exact_counts(n: int, shares: Dict[str, float]) -> Dict[str, int]:
    """Split ``n`` by ``shares`` exactly (largest remainder), so every
    run has the same mix."""
    total = sum(shares.values())
    raw = {k: n * v / total for k, v in shares.items()}
    counts = {k: int(np.floor(v)) for k, v in raw.items()}
    order = sorted(raw, key=lambda k: raw[k] - counts[k], reverse=True)
    for k in order[: n - sum(counts.values())]:
        counts[k] += 1
    return counts


def arrivals(rng: np.random.Generator, n: int, seconds: float) -> np.ndarray:
    """Poisson arrival offsets: ``n`` arrivals in ``[0, seconds)`` are
    uniform order statistics."""
    return np.sort(rng.uniform(0.0, seconds, size=n))


def read_mix(
    shape: np.random.Generator,
    n: int,
    shares: Dict[str, float],
    datasets: Sequence[str],
    pools: Dict[str, np.ndarray],
    params: Dict[str, dict],
    profile: str,
    cf_dataset: Optional[str] = None,
) -> List[Request]:
    """``n`` queries in exact ``shares``, in an order drawn from
    ``shape``; graph kernels alternate over ``datasets``, ``cf`` runs on
    ``cf_dataset``. The k-th BFS (and the k-th SSSP) on a dataset starts
    from slot ``k mod 32`` of its pool, so every run repeats sources the
    same way and only the seeded pool decides which vertices they are."""
    out = []
    for algorithm, count in exact_counts(n, shares).items():
        if algorithm == "cf":
            targets = [cf_dataset] * count
        else:
            targets = [datasets[i % len(datasets)] for i in range(count)]
        slot: Dict[str, int] = {}
        for dataset in targets:
            p = dict(params.get(algorithm, {}))
            if algorithm in ("bfs", "sssp"):
                k = slot.get(dataset, 0)
                slot[dataset] = k + 1
                p["source"] = int(pools[dataset][k % len(pools[dataset])])
            out.append(Request("/query", {
                "dataset": dataset, "algorithm": algorithm, "params": p,
                "profile": profile,
            }, algorithm))
    order = shape.permutation(len(out))
    return [out[i] for i in order]


def mutation_batches(
    rng: np.random.Generator,
    graph,
    count: int,
    inserts: int,
    deletes: int,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``count`` disjoint (inserts, deletes) batches for ``graph``.

    Inserts are fresh non-loop edges, deletes distinct existing edges;
    no edge appears in two batches, so the final graph is the same in
    whatever order the daemon applies them.
    """
    n = graph.num_vertices
    existing = graph.edges.rows.astype(np.int64) * n + graph.edges.cols
    existing_set = set(existing.tolist())
    fresh: List[int] = []
    seen = set()
    while len(fresh) < count * inserts:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        key = u * n + v
        if u != v and key not in existing_set and key not in seen:
            seen.add(key)
            fresh.append(key)
    unique_existing = np.unique(existing)
    doomed = rng.choice(unique_existing, size=count * deletes, replace=False)
    out = []
    for b in range(count):
        ins = np.asarray(fresh[b * inserts:(b + 1) * inserts], dtype=np.int64)
        dels = doomed[b * deletes:(b + 1) * deletes]
        out.append((
            np.stack([ins // n, ins % n], axis=1),
            np.stack([dels // n, dels % n], axis=1),
        ))
    return out


def mutate_request(dataset: str, profile: str, batch) -> Request:
    ins, dels = batch
    return Request("/mutate", {
        "dataset": dataset, "profile": profile,
        "inserts": ins.tolist(), "deletes": dels.tolist(),
    }, "mutate")


class TraceIds:
    """Deterministic W3C trace ids: seed in the high half, a running
    request number in the low half (never all-zero)."""

    def __init__(self, seed: int) -> None:
        self.prefix = f"{seed & 0xFFFFFFFFFFFFFFFF:016x}"
        self.count = 0

    def next(self) -> str:
        self.count += 1
        return f"{self.prefix}{self.count:016x}"


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
def send(port: int, request: Request, trace_id: str, timeout: float = 120.0):
    """One request on a fresh connection; ``(status, payload, error)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            "POST", request.path, body=json.dumps(request.body).encode(),
            headers={
                "Content-Type": "application/json",
                "traceparent": f"00-{trace_id}-{trace_id[16:]}-01",
            },
        )
        response = conn.getresponse()
        raw = response.read()
        payload = json.loads(raw.decode("utf-8"))
        if response.status != 200:
            return response.status, None, str(payload)
        return response.status, payload, None
    except (OSError, http.client.HTTPException, ValueError) as exc:
        return 0, None, f"{type(exc).__name__}: {exc}"
    finally:
        conn.close()


def _lanes(requests: Sequence[Request], lane_of) -> list:
    """One index iterator per connection, each in due order.

    With ``lane_of`` unset both connections share one queue; otherwise
    ``lane_of(request)`` pins each request to connection 0 or 1.
    """
    if lane_of is None:
        shared = iter(range(len(requests)))
        return [shared] * CONNECTIONS
    lanes: List[List[int]] = [[] for _ in range(CONNECTIONS)]
    for index, request in enumerate(requests):
        lanes[lane_of(request)].append(index)
    return [iter(lane) for lane in lanes]


def _drive(port, requests, trace_ids, due_of, lanes) -> List[Outcome]:
    outcomes: List[Optional[Outcome]] = [None] * len(requests)
    ids = [trace_ids.next() for _ in requests]
    lock = threading.Lock()

    def worker(cursor) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            free = time.perf_counter()
            due = due_of(index, free)
            target = max(due, free)
            if due > free:
                time.sleep(due - free)
            sent = time.perf_counter()
            status, payload, error = send(port, requests[index], ids[index])
            done = time.perf_counter()
            outcomes[index] = Outcome(
                requests[index], ids[index], status, payload, error,
                due=due, sent=sent, done=done, lag=sent - target,
            )

    threads = [threading.Thread(target=worker, args=(lane,)) for lane in lanes]
    # A cyclic-GC pause in this process would delay sends and reads and
    # show up as daemon latency.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        if gc_was_enabled:
            gc.enable()
    return outcomes  # type: ignore[return-value]


def run_open(
    port: int,
    requests: Sequence[Request],
    offsets: Sequence[float],
    trace_ids: TraceIds,
    lane_of: Optional[Callable[[Request], int]] = None,
) -> List[Outcome]:
    """Send each request at its arrival offset (open loop)."""
    start = time.perf_counter() + 0.05
    return _drive(
        port, requests, trace_ids,
        lambda i, _free: start + float(offsets[i]),
        _lanes(requests, lane_of),
    )


def run_closed(
    port: int,
    requests: Sequence[Request],
    trace_ids: TraceIds,
    lane_of: Optional[Callable[[Request], int]] = None,
) -> Tuple[List[Outcome], float]:
    """Send back to back on each connection; returns the batch wall."""
    start = time.perf_counter()
    outcomes = _drive(
        port, requests, trace_ids, lambda _i, free: free,
        _lanes(requests, lane_of),
    )
    return outcomes, max(o.done for o in outcomes) - start
