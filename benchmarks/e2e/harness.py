"""Shared plumbing for the end-to-end benchmark.

Paths, per-repetition scratch directories, child-process environments,
the `repro serve` daemon lifecycle, and the small statistics every
workload reports. Everything the benchmark writes lives under
``benchmarks/e2e/.work`` inside the checkout and is removed when the
run ends.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK_ROOT = HERE / ".work"

#: How long a daemon may take from spawn to ``/readyz`` 200.
READY_TIMEOUT_S = 120.0

#: How long a stopped process may take to exit before it is killed (a
#: traced daemon writes its span summary on the way out).
STOP_TIMEOUT_S = 60.0


def require_source_tree() -> None:
    """Fail fast when the checkout holds no ``src/repro`` to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no repro package under {SRC}; run the benchmark "
            f"from a full checkout"
        )


class Workspace:
    """One run's scratch area; :meth:`fresh` hands out empty dirs.

    Every repetition gets its own ``REPRO_CACHE_DIR``/``REPRO_STORE_DIR``
    so no repetition starts warm from another's files.
    """

    def __init__(self) -> None:
        self.root = WORK_ROOT / f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self.root.mkdir(parents=True)
        self._count = 0

    def fresh(self, label: str) -> Path:
        self._count += 1
        path = self.root / f"{self._count:02d}-{label}"
        for sub in ("cache", "store", "tmp"):
            (path / sub).mkdir(parents=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass


def child_env(rep_dir: Path) -> Dict[str, str]:
    """Environment for a process under test: this checkout's ``src``,
    empty caches, default reuse and log settings."""
    env = dict(os.environ)
    for name in ("REPRO_REUSE", "REPRO_LOG_LEVEL", "PYTHONSTARTUP"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(rep_dir / "cache")
    env["REPRO_STORE_DIR"] = str(rep_dir / "store")
    env["TMPDIR"] = str(rep_dir / "tmp")
    return env


def stop_process(proc: subprocess.Popen) -> None:
    """Interrupt a child (SIGINT), kill it if it does not exit, reap it."""
    if proc.poll() is None:
        try:
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_point(n: int) -> float:
    """The highest reportable percentile for ``n`` samples.

    The highest of p99/p95/p90/p75 that leaves at least ten samples
    beyond it; below 40 samples (deterministic batch work) the maximum.
    """
    for q in (99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return 100.0


def tail_label(q: float) -> str:
    return "max" if q >= 100.0 else f"p{q:g}"


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Result:
    """What one workload run reports.

    ``metrics`` holds the gated end-to-end metrics (BENCHMARK.json
    ``end_to_end``), ``per_layer`` the traced layer metrics, ``info``
    the workload-specific figures printed beside them as
    ``name -> (value, unit)``.
    """

    workload: str
    traced: bool
    metrics: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, tuple] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.failures

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "traced": self.traced,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "metrics": self.metrics,
            "per_layer": self.per_layer,
            "info": {k: list(v) for k, v in self.info.items()},
            "notes": self.notes,
        }


# ----------------------------------------------------------------------
# The serve daemon
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` process under test, on an ephemeral port.

    ``traced`` starts it through ``traced_serve.py``, which installs the
    benchmark's span wrappers before handing over to the repro CLI.
    """

    def __init__(
        self,
        rep_dir: Path,
        preload: Sequence[str],
        profile: str,
        traced: bool = False,
        spans_path: Optional[Path] = None,
    ) -> None:
        self.summary_path = rep_dir / "trace-summary.json"
        serve_args = ["serve", "--port", "0", "--profile", profile]
        for key in preload:
            serve_args += ["--preload", key]
        if traced:
            cmd = [sys.executable, str(HERE / "traced_serve.py"),
                   "--summary", str(self.summary_path)]
            if spans_path is not None:
                cmd += ["--spans", str(spans_path)]
            cmd += ["--", *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        self.stderr_path = rep_dir / "daemon.stderr"
        self._stderr = open(self.stderr_path, "w", encoding="utf-8")
        self.port: Optional[int] = None
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=str(rep_dir), env=child_env(rep_dir),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._stderr,
        )
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _stderr_tail(self) -> str:
        text = self.stderr_path.read_text(encoding="utf-8", errors="replace")
        return "\n".join(text.splitlines()[-20:])

    def _wait_ready(self) -> None:
        deadline = time.perf_counter() + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode}:\n"
                    f"{self._stderr_tail()}"
                )
            if self.port is None:
                self.port = self._listening_port()
            elif self._ready():
                return
            time.sleep(0.005)
        raise RuntimeError(
            f"daemon not ready after {READY_TIMEOUT_S:.0f}s:\n"
            f"{self._stderr_tail()}"
        )

    def _listening_port(self) -> Optional[int]:
        with open(self.stderr_path, encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if '"serve.listening"' in line:
                    return int(json.loads(line)["port"])
        return None

    def _ready(self) -> bool:
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{self.port}/readyz", timeout=5
            ) as response:
                return response.status == 200
        except (urllib.error.URLError, OSError):
            return False

    def get_json(self, path: str) -> dict:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{self.port}{path}", timeout=30
        ) as response:
            return json.loads(response.read().decode("utf-8"))

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` (peak resident set) in MiB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        try:
            stop_process(self.proc)
        finally:
            self._stderr.close()

    def trace_summary(self) -> dict:
        """The traced launcher's exit summary (after :meth:`stop`)."""
        if not self.summary_path.exists():
            raise RuntimeError(
                f"traced daemon exited {self.proc.returncode} without a "
                f"summary:\n{self._stderr_tail()}"
            )
        with open(self.summary_path, encoding="utf-8") as fh:
            return json.load(fh)
