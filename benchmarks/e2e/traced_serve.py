"""Launch ``repro serve`` with the benchmark's span wrappers installed.

    python traced_serve.py --summary F [--spans F] -- serve --port 0 ...

Installs :mod:`tracing`'s wrappers, then hands the remaining arguments
to ``repro.cli.main`` in this same process. When the daemon stops
(SIGINT), it writes the span aggregates plus the layout-cache counters
to ``--summary``, then the kept spans as JSONL to ``--spans`` if given.
"""

from __future__ import annotations

import argparse
import json
import sys

import tracing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    recorder = tracing.Recorder()
    missing = tracing.install(recorder)
    if missing:
        print(f"trace targets not found: {missing}", file=sys.stderr)
    from repro.cli import main as repro_main
    from repro.core.cache import get_cache

    try:
        return repro_main(cli_args)
    finally:
        stats = get_cache().stats
        summary = recorder.summary()
        summary["cache"] = {
            "hits": stats.hits,
            "misses": stats.grid_misses + stats.layout_misses,
        }
        with open(args.summary, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        if args.spans:
            recorder.write_spans(args.spans)


if __name__ == "__main__":
    sys.exit(main())
