"""Deterministic random streams.

Everything stochastic in this package flows from explicit 64-bit seeds
through splitmix64.  Streams are split by hashing string/integer labels
into the state, so independent components (loss draws, jitter, shuffles)
can be re-derived without sharing a sequence.  The generator is small
enough to reimplement in any language from this file alone:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output <- z xor (z >> 31)

A uniform draw is output / 2^64, with output rounded to the nearest
double (ties to even) before the exact division.  The bulk forms
apply the same steps to numpy uint64 arrays, whose adds and multiplies
wrap mod 2^64, and return the same floats as the scalar forms:
`uniform_stream` the draws of one stream, `keyed_uniforms` the keyed
draws of consecutive first keys.  Seeds are folded into the arrays as
Python ints, since a numpy scalar add that wraps warns of overflow.
"""

from __future__ import annotations

import itertools

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """`_mix` over a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def derive_seed(seed: int, *labels: int | str) -> int:
    """Fold labels into a seed, yielding an independent child seed."""
    state = _mix(seed & _MASK)
    for label in labels:
        if isinstance(label, str):
            data = label.encode("utf-8")
        else:
            data = (label & _MASK).to_bytes(8, "little")
        for i in range(0, len(data), 8):
            chunk = int.from_bytes(data[i : i + 8].ljust(8, b"\0"), "little")
            state = _mix((state + _GOLDEN) ^ chunk)
    return state


def keyed_uniform(seed: int, *keys: int) -> float:
    """Uniform in [0, 1) as a pure function of (seed, keys).

    Used where a draw must depend on the identity of an event (e.g. a
    segment index and attempt number) rather than on draw order.
    """
    state = seed & _MASK
    for k in keys:
        state = _mix((state + _GOLDEN) ^ (k & _MASK))
    return _mix(state) / 2.0**64


def keyed_uniforms(seed: int, n: int, *keys: int) -> np.ndarray:
    """`keyed_uniform(seed, k, *keys)` for k = 0 .. n - 1, as one float64 array."""
    state = _mix_array(np.uint64((seed + _GOLDEN) & _MASK) ^ np.arange(n, dtype=np.uint64))
    for k in keys:
        state = _mix_array((state + np.uint64(_GOLDEN)) ^ np.uint64(k & _MASK))
    return _mix_array(state) / 2.0**64


_BLOCK = 1024
_BLOCK_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GOLDEN)


def uniform_stream(seed: int):
    """Iterator over the draws of SplitMix64(seed).uniform(), computed
    `_BLOCK` at a time as the first draw of each block is asked for."""
    starts = (np.uint64((seed + i * _BLOCK * _GOLDEN) & _MASK) for i in itertools.count())
    return itertools.chain.from_iterable((_mix_array(s + _BLOCK_STEPS) / 2.0**64).tolist() for s in starts)


class SplitMix64:
    """Sequential splitmix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def uniform(self) -> float:
        return self.next_u64() / 2.0**64

    def randint(self, n: int) -> int:
        """Integer in [0, n).  Modulo bias is irrelevant at 64 bits."""
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]
