"""Unit and property tests for the from-scratch DBSCAN."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import NOISE, dbscan, dbscan_labels


def norm_metric(a, b):
    return float(np.linalg.norm(a - b))


def two_blobs(n=30, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal((0, 0), 0.3, size=(n, 2))
    b = rng.normal((10, 10), 0.3, size=(n, 2))
    return np.vstack([a, b])


class TestBasics:
    def test_two_well_separated_blobs(self):
        labels = dbscan_labels(two_blobs(), eps=1.5, min_samples=4)
        assert set(labels) == {0, 1}
        # Points of the same blob share a label.
        assert len(set(labels[:30])) == 1
        assert len(set(labels[30:])) == 1
        assert labels[0] != labels[30]

    def test_all_noise_when_sparse(self):
        data = [[0, 0], [100, 100], [200, 0], [0, 200]]
        labels = dbscan_labels(data, eps=1.0, min_samples=2)
        assert all(label == NOISE for label in labels)

    def test_single_cluster_line(self):
        data = [[i, 0] for i in range(20)]
        labels = dbscan_labels(data, eps=1.5, min_samples=3)
        assert set(labels) == {0}

    def test_empty_input(self):
        assert len(dbscan_labels(np.empty((0, 2)), eps=1.0, min_samples=2)) == 0

    def test_border_point_absorbed(self):
        # Dense core at x=0..4 plus one point just within eps of the edge.
        data = [[float(i), 0.0] for i in range(5)] + [[4.9, 0.0]]
        labels = dbscan_labels(data, eps=1.0, min_samples=3)
        assert labels[-1] == labels[0]

    def test_noise_outlier(self):
        data = [[float(i), 0.0] for i in range(5)] + [[50.0, 50.0]]
        labels = dbscan_labels(data, eps=1.0, min_samples=3)
        assert labels[-1] == NOISE

    def test_validation(self):
        with pytest.raises(ValueError):
            dbscan_labels([[0, 0]], eps=0.0, min_samples=2)
        with pytest.raises(ValueError):
            dbscan_labels([[0, 0]], eps=1.0, min_samples=0)

    def test_min_samples_one_everything_clustered(self):
        labels = dbscan_labels([[0, 0], [100, 100]], eps=1.0, min_samples=1)
        assert NOISE not in labels
        assert labels[0] != labels[1]

    def test_higher_dimensional_data(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 0.1, size=(20, 4))
        b = rng.normal(5, 0.1, size=(20, 4))
        labels = dbscan_labels(np.vstack([a, b]), eps=1.0, min_samples=4)
        assert set(labels) == {0, 1}


class TestCustomMetric:
    def test_custom_metric_equivalent_for_euclidean(self):
        data = two_blobs(15, seed=3)
        default = dbscan_labels(data, eps=1.5, min_samples=4)
        custom = dbscan_labels(
            data, eps=1.5, min_samples=4, metric=lambda a, b: float(np.linalg.norm(a - b))
        )
        assert (default == custom).all()

    def test_chebyshev_metric(self):
        data = [[0, 0], [0.9, 0.9], [1.8, 1.8], [50, 50]]
        labels = dbscan_labels(
            data, eps=1.0, min_samples=2, metric=lambda a, b: float(np.max(np.abs(a - b)))
        )
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == NOISE


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=50, allow_nan=False),
                st.floats(min_value=-50, max_value=50, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=0.5, max_value=10.0),
        st.integers(min_value=1, max_value=5),
    )
    def test_labels_well_formed(self, pts, eps, min_samples):
        labels = dbscan_labels(pts, eps=eps, min_samples=min_samples)
        assert len(labels) == len(pts)
        clusters = set(labels) - {NOISE}
        if clusters:
            # Contiguous ids starting at 0.
            assert clusters == set(range(len(clusters)))

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-30, max_value=30, allow_nan=False),
                st.floats(min_value=-30, max_value=30, allow_nan=False),
            ),
            min_size=2,
            max_size=25,
        )
    )
    def test_blockwise_neighbourhoods_match_brute_force(self, pts):
        """The blockwise neighbourhoods must equal a linear-scan metric."""
        eps, min_samples = 3.0, 2
        fast = dbscan_labels(pts, eps=eps, min_samples=min_samples)
        brute = dbscan_labels(
            pts,
            eps=eps,
            min_samples=min_samples,
            metric=lambda a, b: float(np.linalg.norm(a - b)),
        )
        assert (fast == brute).all()



class TestTheEpsBoundary:
    """A pair exactly ``eps`` apart is a pair of neighbours; one ulp further
    is not. The blockwise distances decide this as the per-pair
    ``np.linalg.norm`` does."""

    @pytest.mark.parametrize(
        "offset, eps",
        [((0.75, 0.0), 0.75), ((3.0, 4.0), 5.0), ((-0.3, 0.0), 0.3), ((0.0, 1e-3), 1e-3)],
    )
    def test_exactly_eps_and_one_ulp_either_side(self, offset, eps):
        base = np.array([0.5, 0.25])
        pair = np.array([base, base + np.asarray(offset)])
        distance = float(np.linalg.norm(pair[1] - pair[0]))
        for e, neighbours in [
            (distance, True),
            (np.nextafter(distance, np.inf), True),
            (np.nextafter(distance, 0.0), False),
        ]:
            labels = dbscan_labels(pair, eps=e, min_samples=2)
            brute = dbscan_labels(pair, eps=e, min_samples=2, metric=norm_metric)
            assert (labels == brute).all()
            assert (labels == [0, 0]).all() if neighbours else (labels == NOISE).all()
        assert distance == pytest.approx(eps)

    def test_a_ring_at_exactly_eps(self):
        # Four points exactly 5 from the centre and over 7 from each other:
        # at eps = 5 the centre is a core point, one ulp less and all is noise.
        ring = [(3, 4), (-4, 3), (-3, -4), (4, -3)]
        pts = np.array([(0.0, 0.0)] + ring, dtype=float)
        for eps, expected in [(5.0, 1), (np.nextafter(5.0, 0.0), 0)]:
            labels = dbscan_labels(pts, eps=eps, min_samples=3)
            assert (labels == dbscan_labels(pts, eps=eps, min_samples=3, metric=norm_metric)).all()
            assert len(set(labels) - {NOISE}) == expected


class TestBlocks:
    def test_any_block_size_gives_the_same_labels(self, monkeypatch):
        rng = np.random.default_rng(5)
        pts = np.vstack([rng.normal(c, 0.6, size=(40, 4)) for c in (0.0, 3.0, 9.0)])
        whole = dbscan_labels(pts, eps=1.2, min_samples=4)
        assert len(set(whole) - {NOISE}) >= 2
        for rows in (1, 7, 64):
            monkeypatch.setattr(dbscan, "_BLOCK_ROWS", rows)
            assert (dbscan_labels(pts, eps=1.2, min_samples=4) == whole).all()
        assert (dbscan_labels(pts, eps=1.2, min_samples=4, metric=norm_metric) == whole).all()
