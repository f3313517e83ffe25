"""Bulk splitmix64 forms against the scalar generator they replace."""

import itertools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdiag.rng import _BLOCK, SplitMix64, uniform_stream

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
