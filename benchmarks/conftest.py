"""Shared helpers for the figure-regeneration benchmark suite.

Every benchmark regenerates one table/figure of the paper's evaluation
(Section 8) at ``Scale.small()`` sizing, prints the series in a
paper-figure layout, and asserts the paper's qualitative *shape* claims
(who wins, what degrades, where curves sit) rather than absolute numbers —
the substrate here is a synthetic city, not the authors' testbed.

Run with::

    pytest benchmarks/ --benchmark-disable

which runs every test once, shape assertions included
(``--benchmark-only`` would skip each test without the ``benchmark``
fixture).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.eval.report import render_series
from repro.obs import get_registry


def pytest_addoption(parser):
    parser.addoption(
        "--metrics-out",
        default=None,
        metavar="DIR",
        help="dump a BENCH_<module>.json metrics snapshot per benchmark module into DIR",
    )


@pytest.fixture(scope="module", autouse=True)
def bench_metrics_snapshot(request):
    """Write each module's metrics (BENCH_<module>.json) when requested.

    The registry is reset before every benchmark module either way, so a
    snapshot holds exactly what that module's figures recorded; two of
    them diff with ``kamel stats A B``.
    """
    get_registry().reset()
    yield
    out_dir = request.config.getoption("--metrics-out")
    if not out_dir:
        return
    directory = pathlib.Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    name = request.module.__name__.removeprefix("bench_")
    get_registry().write_json(directory / f"BENCH_{name}.json")


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark ``fn`` with a single timed round (figures are minutes-long
    at full scale; one round keeps the suite tractable)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def show(capsys, title: str, x_label: str, xs, series) -> None:
    """Print a figure table past pytest's capture."""
    with capsys.disabled():
        print()
        print(render_series(title, x_label, xs, series))


@pytest.fixture(scope="session")
def bench_scale():
    from repro.eval.figures import Scale

    return Scale.small()
