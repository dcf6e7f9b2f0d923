"""Property tests of the serving stats helpers.

The serving layer's nearest-rank percentile must agree with the reference
implementation (``numpy.percentile(..., method="inverted_cdf")``) on every
input, lists and float64 arrays alike — hypothesis drives arbitrary samples
and q values, plus the classic edge cases (empty, single element, all-equal,
q at the 0/100 boundaries).
``TimeBase.first_ticks``, the one-pass conversion of a trace's arrivals to
first ticks, must equal the scalar ``first_tick`` entry for entry.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serving.stats import TimeBase, percentile

finite_floats = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False)


@given(
    values=st.lists(finite_floats, min_size=1, max_size=64),
    q=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
def test_matches_numpy_inverted_cdf(values, q):
    """Lists and float64 arrays alike, always returned as a Python float."""
    expected = float(np.percentile(np.array(values), q, method="inverted_cdf"))
    for sample in (values, np.array(values, dtype=np.float64)):
        value = percentile(sample, q)
        assert type(value) is float
        assert value == expected


def test_arrays_are_samples_too():
    assert percentile(np.array([3.0, 1.0, 2.0]), 50.0) == 2.0
    assert type(percentile(np.array([3.25]), 50.0)) is float
    assert percentile(np.array([], dtype=np.float64), 50.0) == 0.0


@given(q=st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
def test_single_element_is_that_element(q):
    assert percentile([3.25], q) == 3.25


@given(
    value=finite_floats,
    size=st.integers(min_value=1, max_value=32),
    q=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
def test_all_equal_values_return_the_value(value, size, q):
    assert percentile([value] * size, q) == value


@given(values=st.lists(finite_floats, min_size=1, max_size=64))
def test_boundaries_are_min_and_max(values):
    assert percentile(values, 0.0) == min(values)
    assert percentile(values, 100.0) == max(values)


def test_empty_returns_zero():
    assert percentile([], 50.0) == 0.0


def test_out_of_range_q_rejected():
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)
    with pytest.raises(ValueError):
        percentile([1.0], -1.0)


def test_nearest_rank_examples():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 50.0) == 2.0
    assert percentile(values, 51.0) == 3.0  # any q past the midpoint steps up
    assert percentile(values, 25.0) == 1.0
    assert percentile(values, 26.0) == 2.0


@given(
    instants=st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            # Exact tick instants and their float neighbours: where the
            # quotient's rounding can land a tick off either way.
            st.integers(0, 10**6).map(lambda tick: tick * (1 / 300e6)),
            st.integers(1, 10**6).map(lambda tick: float(np.nextafter(tick / 300e6, 0.0))),
        ),
        max_size=64,
    ),
    tick_seconds=st.sampled_from([1.0, 1 / 300e6, 1 / 200e6, 1e-9 / 3, 7e-3]),
)
def test_vectorized_first_ticks_match_scalar(instants, tick_seconds):
    time_base = TimeBase(tick_seconds)
    ticks = time_base.first_ticks(instants)
    assert ticks == [time_base.first_tick(instant) for instant in instants]
    assert all(type(tick) is int for tick in ticks)


def test_first_ticks_past_int64_take_the_scalar_path():
    time_base = TimeBase(1e-9)
    instants = [0.5, 1e12]
    assert time_base.first_ticks(instants) == [time_base.first_tick(x) for x in instants]
