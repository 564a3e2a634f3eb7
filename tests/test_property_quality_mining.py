"""Property-based tests for quality criteria, injectors, metrics and the KB distance."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st
from parity import on_reference

from repro.core.injection import INJECTOR_REGISTRY, get_injector
from repro.datasets import make_classification_dataset
from repro.mining.metrics import accuracy, cohen_kappa, macro_f1, rule_interestingness
from repro.quality import measure_quality
from repro.quality.profile import DEFAULT_CRITERIA
from repro.tabular.dataset import Column, ColumnRole, ColumnType, Dataset

# A single reusable clean dataset keeps the property tests fast.
_CLEAN = make_classification_dataset(n_rows=60, n_numeric=2, n_categorical=1, seed=13)

_injector_names = st.sampled_from(sorted(INJECTOR_REGISTRY))
_severities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_labels = st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=40)

#: Spelling variants on purpose: fuzzy duplication and the accuracy criterion
#: must treat these identically on the row and encoded paths.
_CATEGORY_POOL = ("red", "Red", "  RED ", "réd", "blue", "BLUE", "green", None)
_numeric_cells = st.one_of(
    st.none(),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def _random_datasets(draw):
    """Small mixed datasets: numeric/categorical/boolean columns, missing
    cells, spelling variants and (sometimes) a target column."""
    n_rows = draw(st.integers(min_value=1, max_value=25))
    n_numeric = draw(st.integers(min_value=0, max_value=2))
    n_categorical = draw(st.integers(min_value=0 if n_numeric else 1, max_value=2))
    columns = []
    for j in range(n_numeric):
        cells = draw(st.lists(_numeric_cells, min_size=n_rows, max_size=n_rows))
        columns.append(Column(f"num_{j}", cells, ctype=ColumnType.NUMERIC))
    for j in range(n_categorical):
        cells = draw(st.lists(st.sampled_from(_CATEGORY_POOL), min_size=n_rows, max_size=n_rows))
        columns.append(Column(f"cat_{j}", cells, ctype=ColumnType.CATEGORICAL))
    if draw(st.booleans()):
        cells = draw(st.lists(st.sampled_from([True, False, None]), min_size=n_rows, max_size=n_rows))
        columns.append(Column("flag", cells, ctype=ColumnType.BOOLEAN))
    if draw(st.booleans()):
        labels = draw(st.lists(st.sampled_from(["a", "b", None]), min_size=n_rows, max_size=n_rows))
        columns.append(Column("target", labels, ctype=ColumnType.CATEGORICAL, role=ColumnRole.TARGET))
    return Dataset(columns, name="random")


@given(_injector_names, _severities, st.integers(min_value=0, max_value=50))
@settings(max_examples=60, deadline=None)
def test_quality_scores_always_in_unit_interval(name, severity, seed):
    """Whatever is injected at whatever severity, every criterion stays in [0, 1]."""
    degraded = get_injector(name).apply(_CLEAN, severity, seed=seed)
    profile = measure_quality(degraded)
    for criterion, score in profile.as_dict().items():
        assert 0.0 <= score <= 1.0, (name, severity, criterion, score)
    assert set(profile.criteria()) == set(DEFAULT_CRITERIA)


@given(_injector_names, st.integers(min_value=0, max_value=20))
@settings(max_examples=40, deadline=None)
def test_injectors_never_mutate_their_input(name, seed):
    reference = _CLEAN.copy()
    get_injector(name).apply(_CLEAN, 0.7, seed=seed)
    assert _CLEAN == reference


@given(_injector_names, _severities, st.integers(min_value=0, max_value=20))
@settings(max_examples=40, deadline=None)
def test_injectors_deterministic_given_seed(name, severity, seed):
    a = get_injector(name).apply(_CLEAN, severity, seed=seed)
    b = get_injector(name).apply(_CLEAN, severity, seed=seed)
    assert a == b


@given(_labels)
@settings(max_examples=60, deadline=None)
def test_accuracy_and_f1_bounds(truth):
    """Metrics of a perfect prediction are 1; of any prediction they stay in [0, 1]."""
    assert accuracy(truth, truth) == 1.0
    assert macro_f1(truth, truth) == 1.0
    rotated = truth[1:] + truth[:1]
    assert 0.0 <= accuracy(truth, rotated) <= 1.0
    assert 0.0 <= macro_f1(truth, rotated) <= 1.0
    assert -1.0 <= cohen_kappa(truth, rotated) <= 1.0


@given(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_rule_interestingness_consistency(support_antecedent, support_consequent):
    """Confidence never exceeds 1 and lift is confidence / consequent support."""
    support_rule = min(support_antecedent, support_consequent) * 0.9
    measures = rule_interestingness(support_antecedent, support_consequent, support_rule)
    assert 0.0 <= measures["confidence"] <= 1.0 + 1e-9
    if support_consequent > 0:
        assert measures["lift"] == (measures["confidence"] / support_consequent)


@given(_random_datasets())
@settings(max_examples=50, deadline=None)
def test_encoded_profile_equals_row_profile_on_random_datasets(dataset):
    """The encoded and row execution paths produce the same profile vector —
    bit for bit — and the same per-criterion details on arbitrary data."""
    fast = measure_quality(dataset)
    slow = on_reference(measure_quality, dataset)
    assert list(fast.as_vector(DEFAULT_CRITERIA)) == list(slow.as_vector(DEFAULT_CRITERIA))
    assert fast.to_json_dict() == slow.to_json_dict()


@given(_injector_names, _severities, st.integers(min_value=0, max_value=30))
@settings(max_examples=40, deadline=None)
def test_encoded_profile_equals_row_profile_after_injection(name, severity, seed):
    degraded = get_injector(name).apply(_CLEAN, severity, seed=seed)
    fast = measure_quality(degraded)
    slow = on_reference(measure_quality, degraded)
    assert list(fast.as_vector(DEFAULT_CRITERIA)) == list(slow.as_vector(DEFAULT_CRITERIA))
    assert fast.to_json_dict() == slow.to_json_dict()


@given(_injector_names, st.floats(min_value=0.1, max_value=0.8), st.integers(min_value=0, max_value=10))
@settings(max_examples=10, deadline=None)
def test_advisor_recommendation_identical_on_both_paths(small_knowledge_base, name, severity, seed):
    """``Advisor.advise`` recommends the same algorithm (with the same scores
    and the same measured profile) whether the quality criteria run on the
    encoded views or on the row-at-a-time reference path."""
    from repro.core.advisor import Advisor

    degraded = get_injector(name).apply(_CLEAN, severity, seed=seed)
    advisor = Advisor(small_knowledge_base, k=3)
    fast = advisor.advise(degraded)
    slow = on_reference(advisor.advise, degraded)
    assert fast.best_algorithm == slow.best_algorithm
    assert fast.ranked_algorithms == slow.ranked_algorithms
    assert fast.quality_profile == slow.quality_profile
    assert fast.rationale == slow.rationale


@given(st.integers(min_value=0, max_value=30))
@settings(max_examples=20, deadline=None)
def test_profile_distance_is_a_metric_on_samples(seed):
    """Distance is symmetric, non-negative and zero on identical profiles."""
    a = measure_quality(get_injector("completeness").apply(_CLEAN, 0.3, seed=seed))
    b = measure_quality(get_injector("accuracy").apply(_CLEAN, 0.3, seed=seed))
    assert a.distance(a) == 0.0
    assert a.distance(b) >= 0.0
    assert abs(a.distance(b) - b.distance(a)) < 1e-12
