"""Bulk splitmix64 forms against the scalar generator they replace."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdiag.rng import _BLOCK, SplitMix64, keyed_uniform, keyed_uniforms, uniform_stream

SEEDS = st.one_of(st.just(0), st.just(2**64 - 1), st.integers(0, 2**64 - 1))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, n=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7]))
@example(seed=0, n=3 * _BLOCK)
@example(seed=2**64 - 1, n=3 * _BLOCK)
def test_stream_matches_scalar_draws(seed, n):
    scalar = SplitMix64(seed)
    assert list(itertools.islice(uniform_stream(seed), n)) == [scalar.uniform() for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(words=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
@example(words=[0, 1, 2**53 - 1, 2**53 + 1, 2**53 + 3, 2**63 + 2**10 + 1, 2**64 - 2**10, 2**64 - 1])
def test_array_division_rounds_like_python(words):
    # the bulk forms divide uint64 arrays; the scalar forms divide ints
    assert (np.array(words, dtype=np.uint64) / 2.0**64).tolist() == [w / 2.0**64 for w in words]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.sampled_from([0, 2**64 - 1, -1]), st.integers(-(2**70), 2**64 - 1)),
    n=st.one_of(st.sampled_from([1, _BLOCK, _BLOCK + 1]), st.integers(1, 2 * _BLOCK + 7)),
)
@example(seed=2**64 - 1, n=_BLOCK + 1)
@example(seed=-(2**64), n=1)
def test_keyed_draws_match_scalar_draws(seed, n):
    # the simulator's first-send loss draws: attempt 0 of segments 0 .. n - 1
    assert keyed_uniforms(seed, n, 0).tolist() == [keyed_uniform(seed, k, 0) for k in range(n)]
