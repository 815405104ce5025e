"""Shared helpers for the per-figure benchmark harness.

Every benchmark regenerates one table/figure of the paper: it runs the
experiment once under pytest-benchmark (``rounds=1`` — these are
simulations, not microbenchmarks), prints the same rows/series the
paper plots, and writes them to ``benchmarks/results/<name>.txt`` so the
artifacts survive pytest's output capture.
"""

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_collection_modifyitems(items):
    """Every benchmark here is a full figure/MAC sweep: up to a few
    seconds each (all nineteen take ~15 s on two CPUs), not
    milliseconds.  Mark them ``slow`` so
    the tier-1 run (``pytest`` with the default ``-m 'not slow'``)
    skips them; select them explicitly with ``pytest benchmarks -m
    slow`` (or ``-m ""`` for everything)."""
    this_dir = pathlib.Path(__file__).parent
    for item in items:
        if pathlib.Path(str(item.fspath)).parent == this_dir:
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def engine_jobs():
    """Worker-process count for sweep benchmarks.

    ``None`` (the default) keeps the historical serial path.  Set
    ``REPRO_BENCH_JOBS=4`` to fan the figure sweeps out over the
    experiment engine; results stay deterministic for any value.
    """
    value = os.environ.get("REPRO_BENCH_JOBS")
    return int(value) if value else None


@pytest.fixture
def emit():
    """Print an experiment's table and persist it under results/."""

    def _emit(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _emit


@pytest.fixture
def once(benchmark):
    """Run an experiment exactly once under the benchmark timer."""

    def _once(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return _once
