"""Independent answers for every served result.

The serve protocol returns summaries, so each check compares a summary
with the same summary of an independent computation:

* PageRank, BFS — :mod:`repro.baselines.reference` (plain numpy).
* SSSP — scipy's Dijkstra. ``reference.sssp`` is a pure-Python heap
  Dijkstra, ~0.2 s per source at bench scale; scipy gives the same
  distances in C, independently of repro.
* WCC — ``scipy.sparse.csgraph.connected_components(connection="weak")``.
* CF — ``reference.collaborative_filtering``, whose factors the engine
  reproduces bit for bit, hashed the way the protocol hashes them.

Each ``check_*`` returns a list of problems; empty means correct.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

from repro.baselines import reference

#: Full PageRank follows the reference's arithmetic; the incremental
#: (delta) kernel is only epsilon-equivalent to it.
PAGERANK_RTOL = 1e-9
INCREMENTAL_RTOL = 1e-3

#: "Converged" reference budget for warm-started incremental answers.
CONVERGED_ITERATIONS = 10_000
CONVERGED_TOLERANCE = 1e-12


class References:
    """Memoized reference answers for one graph."""

    def __init__(self, graph) -> None:
        self.graph = graph
        self._memo: Dict[tuple, object] = {}

    def _adjacency(self):
        key = ("adjacency",)
        if key not in self._memo:
            csr = self.graph.csr()
            self._memo[key] = sp.csr_matrix(
                (np.asarray(csr.data), np.asarray(csr.indices),
                 np.asarray(csr.indptr)),
                shape=csr.shape,
            )
        return self._memo[key]

    def pagerank(self, iterations: int, tolerance: Optional[float]):
        key = ("pagerank", iterations, tolerance)
        if key not in self._memo:
            self._memo[key] = reference.pagerank(
                self.graph, iterations=iterations, tolerance=tolerance
            )
        return self._memo[key]

    def distances(self, algorithm: str, source: int) -> np.ndarray:
        key = (algorithm, source)
        if key not in self._memo:
            if algorithm == "bfs":
                self._memo[key] = reference.bfs(self.graph, source)
            else:
                self._memo[key] = dijkstra(
                    self._adjacency(), directed=True, indices=source
                )
        return self._memo[key]

    def components(self):
        key = ("wcc",)
        if key not in self._memo:
            count, labels = connected_components(
                self._adjacency(), directed=True, connection="weak"
            )
            self._memo[key] = (count, int(np.bincount(labels).max()))
        return self._memo[key]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def check_pagerank(payload: dict, refs: References, params: dict) -> List[str]:
    budget = refs.pagerank(
        int(params.get("iterations", 10)), params.get("tolerance")
    )
    if not params.get("incremental"):
        return _same_ranks(payload, budget, PAGERANK_RTOL)
    problems = _same_ranks(payload, budget, INCREMENTAL_RTOL)
    if problems:
        # Warm-started from the previous graph version's ranks, the
        # delta passes end nearer the fixed point than the same budget
        # of full sweeps from all-ones. Accept any answer at least as
        # close to the converged ranks as that full-kernel answer.
        converged = refs.pagerank(CONVERGED_ITERATIONS, CONVERGED_TOLERANCE)
        problems = _no_worse_than(payload, budget, converged)
    return problems


def _no_worse_than(payload: dict, budget, converged) -> List[str]:
    def allowed(want: float, full: float) -> float:
        return abs(full - want) + INCREMENTAL_RTOL * abs(want)

    problems = []
    got, want = payload["rank_sum"], float(converged.sum())
    if abs(got - want) > allowed(want, float(budget.sum())):
        problems.append(f"rank_sum {got} is further from the converged "
                        f"{want} than the full kernel's {float(budget.sum())}")
    for vertex, got in zip(payload["top_vertices"], payload["top_ranks"]):
        want = float(converged[vertex])
        if abs(got - want) > allowed(want, float(budget[vertex])):
            problems.append(f"rank of {vertex}: {got}, converged {want}")
            break
    if list(payload["top_ranks"]) != sorted(payload["top_ranks"], reverse=True):
        problems.append("top ranks are not in descending order")
    return problems


def _same_ranks(payload: dict, ranks, rtol: float) -> List[str]:
    problems = []
    if payload["num_vertices"] != ranks.size:
        problems.append(f"num_vertices {payload['num_vertices']} != {ranks.size}")
        return problems
    if not _close(payload["rank_sum"], float(ranks.sum()), rtol):
        problems.append(
            f"rank_sum {payload['rank_sum']} != {float(ranks.sum())}"
        )
    expected_top = np.sort(ranks)[::-1][: len(payload["top_ranks"])]
    for got, want in zip(payload["top_ranks"], expected_top):
        if not _close(got, float(want), rtol):
            problems.append(f"top rank {got} != {float(want)}")
            break
    for vertex, got in zip(payload["top_vertices"], payload["top_ranks"]):
        if not _close(got, float(ranks[vertex]), rtol):
            problems.append(f"rank of {vertex}: {got} != {ranks[vertex]}")
            break
    return problems


def check_traversal(
    payload: dict, refs: References, algorithm: str, source: int
) -> List[str]:
    dist = refs.distances(algorithm, source)
    finite = np.isfinite(dist)
    reached = int(finite.sum())
    max_distance = float(dist[finite].max()) if reached else 0.0
    problems = []
    if payload["source"] != source:
        problems.append(f"source {payload['source']} != {source}")
    if payload["reached"] != reached:
        problems.append(f"reached {payload['reached']} != {reached}")
    if not _close(payload["max_distance"], max_distance, 1e-9):
        problems.append(
            f"max_distance {payload['max_distance']} != {max_distance}"
        )
    return problems


def check_wcc(payload: dict, refs: References) -> List[str]:
    count, largest = refs.components()
    problems = []
    if payload["num_components"] != count:
        problems.append(f"num_components {payload['num_components']} != {count}")
    if payload["largest_component"] != largest:
        problems.append(
            f"largest_component {payload['largest_component']} != {largest}"
        )
    return problems


def cf_checksum(bipartite, params: dict) -> str:
    users, items = reference.collaborative_filtering(
        bipartite,
        num_features=int(params.get("num_features", 32)),
        epochs=int(params.get("epochs", 1)),
    )
    values = np.concatenate((users.ravel(), items.ravel()))
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype=np.float64).tobytes()
    ).hexdigest()[:16]


def check_cf(payload: dict, bipartite, params: dict, checksum: str) -> List[str]:
    problems = []
    expected = {
        "num_users": bipartite.num_users,
        "num_items": bipartite.num_items,
        "num_features": int(params.get("num_features", 32)),
        "epochs": int(params.get("epochs", 1)),
        "checksum": checksum,
    }
    for name, want in expected.items():
        if payload[name] != want:
            problems.append(f"{name} {payload[name]} != {want}")
    return problems


def check_query(payload: dict, body: dict, refs: References) -> List[str]:
    """Check one served graph-kernel summary against ``refs``."""
    algorithm = body["algorithm"]
    params = body.get("params", {})
    try:
        if algorithm == "pagerank":
            return check_pagerank(payload, refs, params)
        if algorithm in ("bfs", "sssp"):
            return check_traversal(
                payload, refs, algorithm, int(params["source"])
            )
        if algorithm == "wcc":
            return check_wcc(payload, refs)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"malformed {algorithm} payload: {type(exc).__name__}: {exc}"]
    return [f"no oracle for {algorithm}"]
