"""End-to-end benchmark of the GaaS-X reproduction at bench scale.

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                 [--trace 0|1] [--out DIR]
                                 [--check-repeat] [--smoke]

With ``--workload`` it runs one workload and prints, as its last stdout
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer metrics of a traced run). Without ``--workload`` it runs all
four; with ``--trace 1`` each untraced run is followed by a traced one
and the tracing overhead is printed. ``--check-repeat`` runs two sets
of the same code and checks they agree within ``BENCHMARK.json``'s
bounds. ``--out DIR`` writes a stamped JSON record (and the traced
runs' spans). The exit status is nonzero when any check fails.

See README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from harness import ROOT, SRC, Result, Workspace, median, require_source_tree

#: ``--check-repeat``: runs per workload in each of the two sets.
REPEAT_RUNS = 3

#: Values that must repeat exactly between sets (modelled clock and
#: counts). serve-mutate is exempt: which graph version a read sees
#: depends on arrival timing, so its modelled sums legitimately vary.
EXACT_INFO = ("modelled_s", "modelled_j", "fig11.speedup_geomean",
              "fig12.energy_geomean", "sim_ops")
EXACT_EXEMPT = ("serve-mutate",)


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def render(result: Result, end_to_end, per_layer) -> str:
    mode = "traced" if result.traced else "untraced"
    lines = [f"== {result.workload} ({mode}) =="]
    if result.metrics:
        lines.append("  end-to-end")
        for name, unit, _better in end_to_end:
            lines.append(f"    {name:<28} {_fmt(result.metrics[name]):>14} {unit}")
    if result.info:
        lines.append("  workload figures")
        for name, (value, unit) in result.info.items():
            lines.append(f"    {name:<28} {_fmt(value):>14} {unit}")
    if result.per_layer:
        lines.append("  per layer (traced run)")
        for name, unit, _better in per_layer:
            lines.append(
                f"    {name:<28} {_fmt(result.per_layer[name]):>14} {unit}"
            )
    for note in result.notes:
        lines.append(f"  note: {note}")
    lines.append(
        f"  checks: {result.attempted} operations, {result.failed} failed"
        + ("" if result.correct else " -- FAILED")
    )
    for failure in result.failures:
        lines.append(f"    ! {failure}")
    return "\n".join(lines)


def render_overhead(untraced: Result, traced: Result, end_to_end) -> str:
    lines = [f"  tracing overhead on {untraced.workload} "
             f"(traced run minus untraced run)"]
    for name, unit, _better in end_to_end:
        if name in untraced.metrics and name in traced.metrics:
            a, b = untraced.metrics[name], traced.metrics[name]
            lines.append(
                f"    {name:<28} {_fmt(b - a):>14} {unit}  "
                f"({(b / a - 1.0) * 100.0:+.1f}%)"
            )
    return "\n".join(lines)


def stamp() -> dict:
    def git(*args) -> Optional[str]:
        try:
            out = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            )
        except OSError:
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    status = git("status", "--porcelain", "--", "src")
    return {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "src_modified": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


def _bounds() -> Dict[str, float]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def check_repeat(sets: List[Dict[str, List[Result]]], end_to_end) -> tuple:
    """Compare two sets' medians against the bounds; returns
    ``(ok, report lines, table)``."""
    bounds = _bounds()
    ok = True
    lines = ["== repeat check: set A vs set B (medians) =="]
    table = []
    for workload in sets[0]:
        for name, unit, better in end_to_end:
            a = median([r.metrics[name] for r in sets[0][workload]])
            b = median([r.metrics[name] for r in sets[1][workload]])
            worse = (b - a) / a if better == "lower" else (a - b) / a
            spread = abs(b - a) / a
            passed = spread <= bounds[name]
            ok &= passed
            table.append({"workload": workload, "metric": name, "a": a,
                          "b": b, "spread": spread, "bound": bounds[name],
                          "worse": worse, "ok": passed})
            lines.append(
                f"  {workload:<13} {name:<11} {_fmt(a):>12} {_fmt(b):>12} "
                f"{unit:<4} spread {spread * 100:5.1f}% "
                f"(bound {bounds[name] * 100:.0f}%)"
                + ("" if passed else "  EXCEEDED")
            )
        if workload in EXACT_EXEMPT:
            continue
        for name in EXACT_INFO:
            values = {
                json.dumps(r.info[name][0])
                for s in sets for r in s[workload] if name in r.info
            }
            if len(values) > 1:
                ok = False
                lines.append(f"  {workload:<13} {name} differs: {values}")
    return ok, lines, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see README.md)."
    )
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets, two-second phases")
    args = parser.parse_args(argv)

    require_source_tree()
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS)
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    selected = [args.workload] if args.workload else names
    profile = "tiny" if args.smoke else "bench"
    seconds = 2.0 if args.smoke else args.seconds
    e2e, layers = workloads.END_TO_END, workloads.PER_LAYER
    workspace = Workspace()

    def run(name: str, traced: bool) -> Result:
        ctx = workloads.Context(
            seed=args.seed, seconds=seconds, traced=traced, profile=profile,
            setups=1 if (traced or args.smoke) else 3, workspace=workspace,
            spans_dir=args.out if traced else None,
        )
        result = workloads.WORKLOADS[name](ctx)
        print(render(result, e2e, layers), flush=True)
        return result

    try:
        if args.check_repeat:
            sets = [
                {name: [run(name, False) for _ in range(REPEAT_RUNS)]
                 for name in selected}
                for _set in range(2)
            ]
            ok, lines, table = check_repeat(sets, e2e)
            print("\n".join(lines))
            results = [r for s in sets for rs in s.values() for r in rs]
            record = {"stamp": stamp(), "seed": args.seed,
                      "seconds": seconds, "check_repeat": table,
                      "sets": [{n: [r.to_dict() for r in rs]
                                for n, rs in s.items()} for s in sets]}
        else:
            ok = True
            results = []
            pairs = []
            traced_only = bool(args.workload is not None and args.trace)
            for name in selected:
                first = run(name, traced_only)
                results.append(first)
                if args.workload is None and args.trace:
                    second = run(name, True)
                    results.append(second)
                    pairs.append((first, second))
                    print(render_overhead(first, second, e2e), flush=True)
            record = {"stamp": stamp(), "seed": args.seed,
                      "seconds": seconds,
                      "runs": [r.to_dict() for r in results],
                      "tracing_overhead": {
                          a.workload: {
                              n: b.metrics[n] - a.metrics[n]
                              for n, _u, _b in e2e
                          } for a, b in pairs
                      }}
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        workspace.close()

    ok &= all(r.correct for r in results)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        label = ("check-repeat" if args.check_repeat else
                 "traced" if args.trace else "run")
        name = args.workload or "all"
        path = args.out / f"{label}-{name}-seed{args.seed}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"record written to {path}")

    if args.workload is not None and not args.check_repeat:
        result = results[-1]
        specs = layers if result.traced else e2e
        values = result.per_layer if result.traced else result.metrics
        metrics = {n: {"value": values[n], "unit": u} for n, u, _b in specs}
    else:
        metrics = {
            f"{r.workload}.{n}": {"value": r.metrics[n], "unit": u}
            for r in results if not r.traced for n, u, _b in e2e
        }
    print(json.dumps({
        "correct": ok,
        "attempted": max(sum(r.attempted for r in results), 1),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
