"""Model input in whole arrays against the per-row code it replaced.

``pipeline.model_dataset`` builds one float table of the samples and
standardizes it in one ``apply_standardizer`` call, ``fit_standardizer``
reads its columns from an array, and ``stratified_split`` and
``stratified_folds`` mark each index's part in one array. The oracles are
the per-row and per-index versions (``reference.model_dataset``,
``fit_standardizer``, ``apply_standardizer``, ``stratified_split`` and
``stratified_folds``); every array must match them in dtype, shape and bytes.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmguard.bsm import (
    AggregatedSample,
    DataError,
    StandardizationParams,
    apply_standardizer,
    fit_standardizer,
)
from bsmguard.ml import stratified_folds, stratified_split
from bsmguard.pipeline import model_dataset

from reference import apply_standardizer as oracle_apply_standardizer
from reference import fit_standardizer as oracle_fit_standardizer
from reference import model_dataset as oracle_model_dataset
from reference import stratified_folds as oracle_stratified_folds
from reference import stratified_split as oracle_stratified_split


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def params_bytes(std):
    return np.array(std.mean).tobytes(), np.array(std.stdev).tobytes()


#: Values with a signed zero, repeats (zero-variance columns) and the CSV's range.
VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -1.5]),
                   st.floats(-1e12, 1e12, allow_subnormal=False))


@st.composite
def sample_lists(draw):
    n = draw(st.integers(4, 60))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return [AggregatedSample(0.1 * (i + 1), draw(VALUES), draw(VALUES), label)
            for i, label in enumerate(labels)]


@settings(max_examples=200, deadline=None)
@given(samples=sample_lists(), seed=st.integers(0, 2**32),
       test_fraction=st.sampled_from([0.1, 0.2, 0.5, 0.75]), saved=st.booleans())
def test_model_dataset_matches_the_per_row_oracle(samples, seed, test_fraction, saved):
    std = StandardizationParams((15.6, -0.0), (2.5, 0.125)) if saved else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-variance columns warn in both
        try:
            want = oracle_model_dataset(samples, seed, test_fraction, std)
        except (DataError, ValueError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                model_dataset(samples, seed, test_fraction, std)
            return
        got = model_dataset(samples, seed, test_fraction, std)
    for g, w in zip(got[:4], want[:4]):
        assert_same_array(g, w)
    assert params_bytes(got[4]) == params_bytes(want[4])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), width=st.sampled_from([1, 2]), n=st.integers(1, 40))
def test_standardizer_matches_the_per_row_oracle(data, width, n):
    rows = [tuple(data.draw(VALUES) for _ in range(width)) for _ in range(n)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        std = fit_standardizer(rows)
        assert params_bytes(std) == params_bytes(oracle_fit_standardizer(rows))
        assert params_bytes(fit_standardizer(np.array(rows))) == params_bytes(std)
    want = np.array([oracle_apply_standardizer(std, row) for row in rows])
    assert_same_array(apply_standardizer(std, rows), want)
    assert_same_array(apply_standardizer(std, np.array(rows)), want)
    for row, want_row in zip(rows, want):
        assert_same_array(apply_standardizer(std, row), want_row)


@pytest.mark.parametrize("rows", [(1.0,), (1.0, 2.0, 3.0), [[1.0]], [[1.0, 2.0, 3.0]], 1.0])
def test_standardizer_rejects_a_feature_count_mismatch(rows):
    std = StandardizationParams((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError, match="expected 2 features"):
        apply_standardizer(std, rows)


@settings(max_examples=200, deadline=None)
@given(counts=st.tuples(st.integers(1, 40), st.integers(0, 40)), seed=st.integers(0, 2**32),
       test_fraction=st.sampled_from([0.01, 0.1, 0.2, 0.5, 0.75, 0.99]), data=st.data())
def test_stratified_split_matches_the_per_class_oracle(counts, seed, test_fraction, data):
    y = np.array(data.draw(st.permutations([0] * counts[0] + [1] * counts[1])), dtype=int)
    got = stratified_split(y, test_fraction, seed)
    for g, w in zip(got, oracle_stratified_split(y, test_fraction, seed)):
        assert_same_array(g, w)


@settings(max_examples=200, deadline=None)
@given(folds=st.integers(2, 7), counts=st.tuples(st.integers(0, 40), st.integers(0, 40)),
       seed=st.integers(0, 2**32), data=st.data())
def test_stratified_folds_match_the_per_index_oracle(folds, counts, seed, data):
    y = np.array(data.draw(st.permutations([0] * counts[0] + [1] * counts[1])), dtype=int)
    want = oracle_stratified_folds(y, folds, seed)
    if any(0 < c < folds for c in counts):  # the oracle deals these out unchecked
        with pytest.raises(DataError, match="infeasible stratification"):
            stratified_folds(y, folds, seed)
        return
    got = stratified_folds(y, folds, seed)
    assert len(got) == len(want) == folds
    for g, w in zip(got, want):
        assert_same_array(g, w)
