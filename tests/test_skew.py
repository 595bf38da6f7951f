"""Unit tests for repro.skew: Zipf distributions, skew specs and balance metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CostModelError, SchemaError
from repro.skew import (
    SkewSpec,
    ZipfDistribution,
    coefficient_of_variation,
    gini_coefficient,
    skew_classification,
    top_fraction_share,
    uniform_probabilities,
    zipf_probabilities,
)


class TestUniformProbabilities:
    def test_sums_to_one(self):
        probs = uniform_probabilities(10)
        assert probs.shape == (10,)
        assert probs.sum() == pytest.approx(1.0)

    def test_all_equal(self):
        probs = uniform_probabilities(7)
        assert np.allclose(probs, 1.0 / 7)

    def test_single_value(self):
        assert uniform_probabilities(1)[0] == pytest.approx(1.0)

    def test_rejects_non_positive(self):
        with pytest.raises(SchemaError):
            uniform_probabilities(0)
        with pytest.raises(SchemaError):
            uniform_probabilities(-3)


class TestZipfProbabilities:
    def test_theta_zero_is_uniform(self):
        assert np.allclose(zipf_probabilities(20, 0.0), uniform_probabilities(20))

    def test_sums_to_one(self):
        for theta in (0.25, 0.5, 1.0, 2.0):
            assert zipf_probabilities(100, theta).sum() == pytest.approx(1.0)

    def test_monotonically_decreasing(self):
        probs = zipf_probabilities(50, 0.8)
        assert np.all(np.diff(probs) <= 1e-15)

    def test_higher_theta_more_concentrated(self):
        mild = zipf_probabilities(100, 0.3)
        strong = zipf_probabilities(100, 1.5)
        assert strong[0] > mild[0]
        assert strong[-1] < mild[-1]

    def test_classic_zipf_ratio(self):
        probs = zipf_probabilities(10, 1.0)
        # Second value carries half the first's weight under theta = 1.
        assert probs[1] / probs[0] == pytest.approx(0.5)

    def test_rejects_negative_theta(self):
        with pytest.raises(SchemaError):
            zipf_probabilities(10, -0.1)

    def test_rejects_non_positive_size(self):
        with pytest.raises(SchemaError):
            zipf_probabilities(0, 1.0)


class TestZipfDistribution:
    def test_counts_preserve_total(self):
        dist = ZipfDistribution(n=37, theta=0.9)
        counts = dist.counts(10_001)
        assert counts.sum() == 10_001
        assert np.all(counts >= 0)

    def test_counts_zero_total(self):
        counts = ZipfDistribution(n=5, theta=1.0).counts(0)
        assert counts.sum() == 0

    def test_counts_rejects_negative_total(self):
        with pytest.raises(SchemaError):
            ZipfDistribution(n=5, theta=1.0).counts(-1)

    def test_counts_uniform_even_split(self):
        counts = ZipfDistribution(n=4, theta=0.0).counts(100)
        assert np.all(counts == 25)

    def test_is_uniform_flag(self):
        assert ZipfDistribution(n=3, theta=0.0).is_uniform
        assert not ZipfDistribution(n=3, theta=0.2).is_uniform

    def test_max_probability_matches_first(self):
        dist = ZipfDistribution(n=8, theta=1.0)
        assert dist.max_probability() == pytest.approx(dist.probabilities()[0])

    def test_invalid_parameters(self):
        with pytest.raises(SchemaError):
            ZipfDistribution(n=0, theta=1.0)
        for theta in (-1.0, float("nan"), float("inf")):
            with pytest.raises(SchemaError):
                ZipfDistribution(n=5, theta=theta)
            with pytest.raises(SchemaError):
                zipf_probabilities(5, theta)


class TestSkewSpec:
    def test_default_is_no_skew(self):
        assert not SkewSpec().is_skewed
        assert not SkewSpec.none().is_skewed

    def test_positive_theta_is_skewed(self):
        assert SkewSpec(theta=0.5).is_skewed

    def test_distribution_materialization(self):
        dist = SkewSpec(theta=0.7).distribution(12)
        assert dist.n == 12
        assert dist.theta == pytest.approx(0.7)

    def test_rejects_negative_theta(self):
        with pytest.raises(SchemaError):
            SkewSpec(theta=-0.2)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_a_non_finite_theta(self, theta):
        # NaN would otherwise pass as uniform, and inf as a point mass.
        with pytest.raises(SchemaError, match="finite"):
            SkewSpec(theta=theta)


class TestBalanceMetrics:
    def test_cv_of_balanced_input_is_zero(self):
        assert coefficient_of_variation([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_cv_increases_with_imbalance(self):
        assert coefficient_of_variation([1, 9]) > coefficient_of_variation([4, 6])

    def test_cv_all_zero_is_zero(self):
        assert coefficient_of_variation([0, 0, 0]) == 0.0

    def test_cv_rejects_empty(self):
        with pytest.raises(CostModelError):
            coefficient_of_variation([])

    def test_cv_rejects_negative(self):
        with pytest.raises(CostModelError):
            coefficient_of_variation([1, -1])

    def test_gini_bounds(self):
        assert gini_coefficient([3, 3, 3]) == pytest.approx(0.0, abs=1e-12)
        concentrated = gini_coefficient([0, 0, 0, 100])
        assert 0.7 < concentrated <= 1.0

    def test_gini_all_zero(self):
        assert gini_coefficient([0, 0]) == 0.0

    def test_top_fraction_share_uniform(self):
        assert top_fraction_share([1] * 10, 0.2) == pytest.approx(0.2)

    def test_top_fraction_share_concentrated(self):
        values = [100] + [1] * 9
        assert top_fraction_share(values, 0.1) > 0.9

    def test_top_fraction_share_invalid_fraction(self):
        with pytest.raises(CostModelError):
            top_fraction_share([1, 2], 0.0)
        with pytest.raises(CostModelError):
            top_fraction_share([1, 2], 1.5)

    def test_skew_classification_bands(self):
        assert skew_classification(0.01) == "none"
        assert skew_classification(0.2) == "notable"
        assert skew_classification(5.0) == "severe"

    def test_skew_classification_invalid(self):
        with pytest.raises(CostModelError):
            skew_classification(-0.1)
        with pytest.raises(CostModelError):
            skew_classification(0.5, notable_threshold=0)
