"""Keep ``benchmarks/conftest.py``'s session fixtures out of the smoke test.

The parent conftest attaches the on-disk layout cache and appends a
record to ``benchmarks/out/BENCH_pytest.json`` for every session. The
smoke test runs the benchmark in subprocesses with their own scratch
caches and must leave no files behind, so both autouse fixtures are
replaced with no-ops here.
"""

import pytest


@pytest.fixture(scope="session", autouse=True)
def persistent_layout_cache():
    yield None


@pytest.fixture(scope="session", autouse=True)
def bench_trajectory(persistent_layout_cache):
    yield
