"""End-to-end integration tests: the paper's qualitative claims hold.

These run the whole system (tokenize -> partition -> constrain -> impute ->
detokenize -> score) on the session's small synthetic city and assert the
*relationships* the paper reports, not absolute numbers.
"""

import dataclasses

import pytest

from repro import Kamel, KamelConfig, LinearImputer, TrImpute
from repro.baselines import HmmMapMatcher
from repro.eval import evaluate_imputation

SPARSENESS = 500.0
MAXGAP = 100.0
DELTA = 40.0


@pytest.fixture(scope="module")
def scores(small_dataset, small_split, trained_kamel):
    """All four methods evaluated on the same sparse test set."""
    train, test = small_split
    test = test[:8]
    sparse = [t.sparsify(SPARSENESS) for t in test]

    out = {}
    out["KAMEL"] = evaluate_imputation(
        test, trained_kamel.impute_batch(sparse), MAXGAP, DELTA
    )
    linear = LinearImputer(MAXGAP)
    out["Linear"] = evaluate_imputation(test, linear.impute_batch(sparse), MAXGAP, DELTA)
    trimpute = TrImpute(MAXGAP).fit(train)
    out["TrImpute"] = evaluate_imputation(
        test, trimpute.impute_batch(sparse), MAXGAP, DELTA
    )
    matcher = HmmMapMatcher(small_dataset.network, MAXGAP)
    out["MapMatch"] = evaluate_imputation(
        test, matcher.impute_batch(sparse), MAXGAP, DELTA
    )
    return out


class TestPaperClaims:
    def test_kamel_beats_linear(self, scores):
        assert scores["KAMEL"].recall > scores["Linear"].recall
        assert scores["KAMEL"].precision > scores["Linear"].precision

    def test_kamel_competitive_with_trimpute(self, scores):
        """Paper: KAMEL >= TrImpute. On the tiny test city allow a small
        margin; the full-size benchmark suite asserts dominance."""
        assert scores["KAMEL"].recall >= scores["TrImpute"].recall - 0.1

    def test_map_matching_is_upper_bound(self, scores):
        assert scores["MapMatch"].recall >= scores["KAMEL"].recall - 0.02
        assert scores["MapMatch"].recall > 0.9

    def test_linear_failure_is_total(self, scores):
        assert scores["Linear"].failure_rate == 1.0

    def test_kamel_failure_rate_moderate(self, scores):
        assert scores["KAMEL"].failure_rate < 0.5

    def test_kamel_absolute_quality(self, scores):
        assert scores["KAMEL"].recall > 0.6
        assert scores["KAMEL"].precision > 0.6


class TestAblationDirections:
    """Fig. 12-VI's qualitative findings on the small city."""

    @pytest.fixture(scope="class")
    def ablation_scores(self, small_split):
        train, test = small_split
        test = test[:6]
        sparse = [t.sparsify(SPARSENESS) for t in test]
        out = {}
        variants = {
            "full": KamelConfig(max_model_calls=600),
            "no_multi": KamelConfig(max_model_calls=600, use_multipoint=False),
            "no_const": KamelConfig(max_model_calls=600, use_constraints=False),
        }
        for name, config in variants.items():
            system = Kamel(config).fit(train)
            out[name] = evaluate_imputation(
                test, system.impute_batch(sparse), MAXGAP, DELTA
            )
        return out

    def test_removing_multipoint_hurts_recall(self, ablation_scores):
        assert ablation_scores["no_multi"].recall < ablation_scores["full"].recall

    def test_removing_constraints_hurts_precision(self, ablation_scores):
        assert (
            ablation_scores["no_const"].precision
            <= ablation_scores["full"].precision + 0.02
        )


class TestBackendEquivalence:
    def test_bert_backend_end_to_end(self, small_split):
        """The transformer backend runs the identical system path."""
        train, test = small_split
        config = KamelConfig(
            model_backend="bert",
            bert_epochs=25,
            use_partitioning=False,
            max_model_calls=300,
        )
        system = Kamel(config).fit(train[:40])
        sparse = test[0].sparsify(SPARSENESS)
        result = system.impute(sparse)
        assert len(result.trajectory) >= len(sparse)
        scores = evaluate_imputation([test[0]], [result], MAXGAP, DELTA)
        assert scores.recall > 0.3  # clearly better than nothing


class TestGridVariants:
    def test_square_grid_system_runs(self, small_split):
        train, test = small_split
        config = KamelConfig(grid_type="square", cell_edge_m=120.0, max_model_calls=600)
        system = Kamel(config).fit(train)
        result = system.impute(test[0].sparsify(SPARSENESS))
        assert result.num_segments >= 1

    def test_iterative_imputer_system_runs(self, small_split):
        train, test = small_split
        config = KamelConfig(imputer="iterative", max_model_calls=600)
        system = Kamel(config).fit(train)
        result = system.impute(test[0].sparsify(SPARSENESS))
        assert result.num_segments >= 1
