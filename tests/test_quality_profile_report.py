"""Unit tests for DataQualityProfile, measure_quality and the quality report."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.injection import MissingValuesInjector
from repro.exceptions import DataQualityError
from repro.quality import CompletenessCriterion, measure_quality, quality_report
from repro.quality.profile import DEFAULT_CRITERIA, DataQualityProfile


class TestMeasureQuality:
    def test_default_criteria_measured(self, budget_dataset):
        profile = measure_quality(budget_dataset)
        assert set(profile.criteria()) == set(DEFAULT_CRITERIA)

    def test_subset_of_criteria(self, budget_dataset):
        profile = measure_quality(budget_dataset, criteria=("completeness", "balance"))
        assert set(profile.criteria()) == {"completeness", "balance"}

    def test_criterion_instances_accepted(self, budget_dataset):
        profile = measure_quality(budget_dataset, criteria=[CompletenessCriterion(include_target=False)])
        assert profile.criteria() == ["completeness"]

    def test_criterion_kwargs_forwarded(self, budget_dataset):
        profile = measure_quality(budget_dataset, criteria=("outliers",), outliers={"iqr_factor": 10.0})
        assert profile.score("outliers") >= measure_quality(budget_dataset, criteria=("outliers",)).score("outliers")

    def test_keyword_naming_no_criterion_rejected(self, budget_dataset):
        with pytest.raises(TypeError, match="unexpected keyword"):
            measure_quality(budget_dataset, criteria=("outliers",), workers=2)


class TestProfile:
    @pytest.fixture
    def clean_and_dirty(self, clean_classification):
        clean = measure_quality(clean_classification)
        degraded_dataset = MissingValuesInjector().apply(clean_classification, 0.3, seed=0)
        dirty = measure_quality(degraded_dataset)
        return clean, dirty

    def test_score_and_unknown_criterion(self, clean_and_dirty):
        clean, _ = clean_and_dirty
        assert clean.score("completeness") == 1.0
        with pytest.raises(DataQualityError):
            clean.score("imaginary")

    def test_as_vector_stable_order(self, clean_and_dirty):
        clean, _ = clean_and_dirty
        vector = clean.as_vector()
        assert vector.shape == (len(clean.criteria()),)
        assert np.all((0.0 <= vector) & (vector <= 1.0))

    def test_overall_and_weights(self, clean_and_dirty):
        _, dirty = clean_and_dirty
        unweighted = dirty.overall()
        weighted = dirty.overall(weights={"completeness": 1.0})
        assert weighted == pytest.approx(dirty.score("completeness"))
        assert 0.0 <= unweighted <= 1.0

    def test_overall_zero_weights_rejected(self, clean_and_dirty):
        clean, _ = clean_and_dirty
        with pytest.raises(DataQualityError):
            clean.overall(weights={"nonexistent": 1.0})

    def test_worst_criteria(self, clean_and_dirty):
        _, dirty = clean_and_dirty
        worst = dirty.worst_criteria(2)
        assert len(worst) == 2
        assert worst[0][1] <= worst[1][1]
        assert "completeness" in [name for name, _ in dirty.worst_criteria(3)]

    def test_distance_properties(self, clean_and_dirty):
        clean, dirty = clean_and_dirty
        assert clean.distance(clean) == 0.0
        assert clean.distance(dirty) > 0.0
        assert clean.distance(dirty) == pytest.approx(dirty.distance(clean))

    def test_distance_with_weights(self, clean_and_dirty):
        clean, dirty = clean_and_dirty
        emphasised = clean.distance(dirty, weights={"completeness": 10.0})
        ignored = clean.distance(dirty, weights={"completeness": 0.0})
        assert emphasised > ignored

    def test_distance_requires_shared_criteria(self, clean_and_dirty):
        clean, _ = clean_and_dirty
        empty = DataQualityProfile("empty")
        with pytest.raises(DataQualityError):
            clean.distance(empty)

    def test_json_roundtrip(self, clean_and_dirty):
        _, dirty = clean_and_dirty
        payload = json.loads(json.dumps(dirty.to_json_dict()))
        restored = DataQualityProfile.from_json_dict(payload)
        assert restored.as_dict() == pytest.approx(dirty.as_dict())

    def test_details_access(self, clean_and_dirty):
        _, dirty = clean_and_dirty
        assert "per_column" in dirty.details("completeness")
        with pytest.raises(DataQualityError):
            dirty.details("imaginary")

    def test_overall_empty_profile_rejected(self):
        with pytest.raises(DataQualityError):
            DataQualityProfile("empty").overall()


class TestReport:
    def test_text_report_contains_scores(self, budget_dataset):
        profile = measure_quality(budget_dataset)
        text = quality_report(profile)
        assert "completeness" in text
        assert "overall quality" in text

    def test_markdown_report(self, budget_dataset):
        profile = measure_quality(budget_dataset)
        markdown = quality_report(profile, fmt="markdown")
        assert markdown.startswith("# Data quality report")
        assert "| criterion |" in markdown

    def test_reference_deltas(self, clean_classification):
        clean_profile = measure_quality(clean_classification)
        dirty_profile = measure_quality(MissingValuesInjector().apply(clean_classification, 0.3, seed=1))
        text = quality_report(dirty_profile, reference=clean_profile)
        assert "vs reference" in text

    def test_unknown_format_rejected(self, budget_dataset):
        with pytest.raises(ValueError):
            quality_report(measure_quality(budget_dataset), fmt="pdf")
