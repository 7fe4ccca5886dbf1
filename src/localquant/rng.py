"""Counter-based deterministic random streams.

Every draw is a pure function of (master_seed, stream_id, draw index), so a
stream produces the same numbers on every platform regardless of thread
count, chunking, or evaluation order. Sub-streams are derived by mixing a tag
into the stream id, which lets independent tasks (replicates, acceptance
draws) consume non-overlapping randomness without coordination.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def _mix_array(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise, in place on the uint64 array `z`, which the
    caller owns and gets back; uint64 arithmetic wraps silently."""
    shifted = np.empty_like(z)
    for shift, mult in ((30, _MIX_A), (27, _MIX_B)):
        z ^= np.right_shift(z, np.uint64(shift), out=shifted)
        z *= np.uint64(mult)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


@dataclass(frozen=True)
class RngStream:
    """Handle for one deterministic stream of draws.

    Identical (master_seed, stream_id) pairs yield identical sequences.
    Instances are immutable; derive fresh randomness with `substream`.
    """

    master_seed: int
    stream_id: int = 0
    # counter base of every draw; not a cached_property, which locks across threads on 3.11
    key: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "key", int(stream_keys(self.master_seed, [self.stream_id])[0]))

    def substream(self, tag: int) -> "RngStream":
        """Derive an independent stream keyed by `tag`."""
        return RngStream(self.master_seed, int(_substream_ids(self.key, [tag])[0]))

    def uniforms(self, n: int) -> np.ndarray:
        """`n` i.i.d. draws from the open interval (0, 1).

        Draw i is a pure function of (master_seed, stream_id, i); calling
        uniforms(k) for k < n returns a prefix of uniforms(n).
        """
        n = operator.index(n)
        if n < 0:
            raise ValueError("n must be nonnegative")
        return self.uniforms_at(np.arange(n, dtype=np.uint64))

    def uniforms_at(self, idx) -> np.ndarray:
        """The draws with indices `idx`: uniforms(n)[idx] for any n > max(idx).

        `idx` is an array of nonnegative integers, in any order and possibly
        repeated; only the requested draws are computed.
        """
        return stream_uniforms([self], idx)[0]


def _words(values) -> np.ndarray:
    """Python or numpy integers modulo 2**64 as a uint64 array; floats raise TypeError."""
    return np.array([operator.index(v) & _MASK64 for v in values], dtype=np.uint64)


def stream_keys(master_seed: int, stream_ids) -> np.ndarray:
    """RngStream(master_seed, i).key for each integer i of `stream_ids`, as a uint64 array;
    with `substream_keys`, the one key schedule, which RngStream uses too."""
    return _keys_of_ids(master_seed, _words(stream_ids))


def substream_keys(master_seed: int, keys: np.ndarray, tags) -> np.ndarray:
    """Keys of the substreams `tags` of the streams of master_seed with the uint64
    `keys`: entry [..., t] is the key of stream.substream(tags[t]), of shape
    keys.shape + (len(tags),)."""
    return _keys_of_ids(master_seed, _substream_ids(keys, tags))


def _substream_ids(keys, tags) -> np.ndarray:
    """Stream ids of the substreams `tags` of the streams with the uint64 `keys`."""
    # tag -> tag * odd + 1 is injective mod 2**64: distinct tags, distinct stream ids
    t = _words(tags) * np.uint64(_GOLDEN) + np.uint64(1)
    return _mix_array(np.asarray(keys, dtype=np.uint64)[..., None] ^ t)


def _keys_of_ids(master_seed: int, ids: np.ndarray) -> np.ndarray:
    """RngStream.key of each stream id of the uint64 array `ids`."""
    return _mix_array(_mix_array(_words([master_seed])) ^ (ids * np.uint64(_GOLDEN)))


def stream_uniforms(streams, idx) -> np.ndarray:
    """Draws `idx` of several streams at once, of shape keys.shape + idx.shape.

    `streams` is a sequence, or nested sequences, of RngStream, or an integer
    array of their keys (signed keys wrap modulo 2**64; any other dtype raises
    TypeError); entry [k, ...] is streams[k].uniforms_at(idx).
    """
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu":
        raise ValueError("draw indices must be integers")
    if idx.dtype.kind == "i" and idx.size and idx.min() < 0:
        raise ValueError("draw indices must be nonnegative")
    if isinstance(streams, np.ndarray):
        if streams.dtype.kind not in "iu":
            raise TypeError(f"stream keys must be integers, got dtype {streams.dtype}")
        keys = streams.astype(np.uint64, copy=False)
    else:
        streams = np.asarray(streams, dtype=object)
        keys = np.array([s.key for s in streams.flat], dtype=np.uint64).reshape(streams.shape)
    keys = keys.reshape(keys.shape + (1,) * idx.ndim)
    # counters wrap modulo 2**64, as uint64 arithmetic does; the ufunc, not `*`,
    # which warns on the wraparound when a 0-d idx has made both factors scalars
    steps = idx.astype(np.uint64, copy=False) + np.uint64(1)
    counters = keys + np.multiply(np.uint64(_GOLDEN), steps)
    bits = _mix_array(np.asarray(counters))  # an array even when 0-d
    # 53 significant bits, offset by half a grid step so 0.0 never occurs; each
    # draw is written over its own bits, which convert to float64 exactly
    np.right_shift(bits, np.uint64(11), out=bits)
    draws = bits.view(np.float64)
    np.add(bits, 0.5, out=draws)
    draws *= 2.0**-53
    return draws[()]  # a numpy float when 0-d, as numpy's arithmetic gives
