"""Figure 9: impact of data sparseness on recall, precision, failure rate.

Regenerates all six panels (recall/precision/failure x Porto-like /
Jakarta-like) and asserts the paper's shape: KAMEL dominates TrImpute and
linear interpolation, map matching is the upper bound, and linear's
failure rate is 100 % by definition.
"""

import pytest

from repro.eval.figures import Scale, fig9_sparseness

from conftest import run_once, show


@pytest.fixture(scope="module")
def fig9(bench_scale: Scale):
    return fig9_sparseness(bench_scale)


def test_fig9_regenerate(benchmark, capsys, bench_scale):
    result = run_once(benchmark, fig9_sparseness, bench_scale)
    xs = result["sparseness_m"]
    for dataset, series in result["datasets"].items():
        for metric, panel in (
            ("recall", "(a/c)"),
            ("precision", "(b/d)"),
            ("failure_rate", "(e/f)"),
        ):
            show(
                capsys,
                f"Figure 9{panel} {dataset} - {metric} vs sparseness",
                "sparse_m",
                xs,
                {m: series[m][metric] for m in series},
            )
    assert result["datasets"]


def test_kamel_beats_linear_everywhere(fig9):
    for series in fig9["datasets"].values():
        for k_val, l_val in zip(series["KAMEL"]["recall"], series["Linear"]["recall"]):
            assert k_val > l_val


def test_kamel_competitive_with_trimpute(fig9):
    """Paper: KAMEL 1.5-3x TrImpute at medium gaps. Assert dominance on
    average and no worse than a small margin anywhere."""
    for series in fig9["datasets"].values():
        kamel = series["KAMEL"]["recall"]
        trimpute = series["TrImpute"]["recall"]
        assert sum(kamel) / len(kamel) >= sum(trimpute) / len(trimpute) - 0.03
        for k_val, t_val in zip(kamel, trimpute):
            assert k_val >= t_val - 0.15


def test_map_matching_is_upper_bound(fig9):
    for series in fig9["datasets"].values():
        for m_val, k_val in zip(series["MapMatch"]["recall"], series["KAMEL"]["recall"]):
            assert m_val >= k_val - 0.05


def test_linear_failure_rate_is_total(fig9):
    for series in fig9["datasets"].values():
        assert all(f == 1.0 for f in series["Linear"]["failure_rate"])


def test_kamel_fails_less_often_than_linear(fig9):
    for series in fig9["datasets"].values():
        assert all(f < 1.0 for f in series["KAMEL"]["failure_rate"])


def test_linear_recall_collapses_with_sparseness(fig9):
    """Fig. 9's most basic trend: straight lines get worse as gaps grow."""
    for series in fig9["datasets"].values():
        lin = series["Linear"]["recall"]
        assert lin[-1] < lin[0]
