import ast
import inspect
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localquant import RngStream
from localquant import rng as rng_mod

import interval_reference as ref


def test_same_key_same_sequence():
    a = RngStream(987654321, 17).uniforms(256)
    b = RngStream(987654321, 17).uniforms(256)
    assert np.array_equal(a, b)


def test_prefix_property():
    r = RngStream(5, 3)
    full = r.uniforms(100)
    assert np.array_equal(r.uniforms(40), full[:40])


def test_distinct_streams_differ():
    a = RngStream(5, 0).uniforms(64)
    b = RngStream(5, 1).uniforms(64)
    c = RngStream(6, 0).uniforms(64)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_open_interval():
    u = RngStream(0).uniforms(10000)
    assert np.all(u > 0.0)
    assert np.all(u < 1.0)


def test_substreams_distinct_and_reproducible():
    r = RngStream(42, 9)
    ids = {r.substream(t).stream_id for t in range(2000)}
    assert len(ids) == 2000
    assert r.substream(3) == r.substream(3)
    assert not np.array_equal(r.substream(0).uniforms(8), r.substream(1).uniforms(8))


def test_uniform_moments():
    u = RngStream(2024).uniforms(500_000)
    assert abs(u.mean() - 0.5) < 0.003
    assert abs(u.var() - 1.0 / 12.0) < 0.0005
    assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 0.005


def test_normals_match_inverse_cdf_moments():
    z = ref.normals(RngStream(7), 500_000)
    assert abs(z.mean()) < 0.005
    assert abs(z.var() - 1.0) < 0.01
    assert abs(np.mean(z < 0) - 0.5) < 0.005


def test_rng_imports_nothing_from_scipy():
    # `import localquant.rng` runs the package __init__, which loads scipy
    # through other modules, so the module's own source is read instead
    tree = ast.parse(inspect.getsource(rng_mod))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module]
    assert "numpy" in modules
    assert not [name for name in modules if name.split(".")[0] == "scipy"]
    assert not hasattr(RngStream, "normals")


def test_negative_inputs_allowed():
    u = RngStream(-12345, -6).uniforms(5)
    assert u.shape == (5,)


def test_rejects_negative_count():
    with pytest.raises(ValueError):
        RngStream(1).uniforms(-1)


_MASK = 2**64 - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix(z):
    """SplitMix64 finalizer on Python ints, reduced modulo 2**64 explicitly."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _key_reference(seed, stream_id):
    """RngStream(seed, stream_id).key from Python ints."""
    return _splitmix(_splitmix(seed) ^ (stream_id * _GOLDEN & _MASK))


def _substream_key_reference(seed, key, tag):
    """Key of substream `tag` of the stream of `seed` with `key`, from Python ints."""
    return _key_reference(seed, _splitmix(key ^ ((tag * _GOLDEN + 1) & _MASK)))


def _uniform_reference(stream, i):
    """Draw i from Python ints: the counter wraps modulo 2**64 explicitly."""
    counter = stream.key + _GOLDEN * (i + 1)
    bits = _splitmix(counter)
    return ((bits >> 11) + 0.5) * 2.0**-53, counter >= 2**64


def test_uniforms_at_matches_uniforms():
    r = RngStream(31337, 4)
    full = r.uniforms(120)
    idx = np.array([7, 0, 119, 7, 7, 64, 3, 0])  # unsorted, repeated
    assert r.uniforms_at(idx).tobytes() == full[idx].tobytes()
    assert r.uniforms_at(np.arange(120)).tobytes() == full.tobytes()
    assert r.uniforms_at(np.array([], dtype=np.int64)).shape == (0,)


def test_uniforms_at_counters_wrap():
    r = RngStream(2**63 + 12345, 2**64 - 1)
    idx = [0, 1, 2, 5, 2**40, 2**62 + 3]
    expected = [_uniform_reference(r, i) for i in idx]
    assert any(wrapped for _, wrapped in expected)
    assert r.uniforms_at(idx).tolist() == [u for u, _ in expected]
    assert r.uniforms_at(idx[:4]).tobytes() == r.uniforms(6)[idx[:4]].tobytes()


def test_uniforms_at_rejects_bad_indices():
    with pytest.raises(ValueError):
        RngStream(1).uniforms_at([3, -1])
    with pytest.raises(ValueError):
        RngStream(1).uniforms_at([0.5])


WIDE_INTS = st.one_of(st.integers(-(2**64), 2**65), st.integers(-2, 2),
                      st.integers(-(2**63) - 2, -(2**63) + 2), st.integers(2**63 - 2, 2**63 + 2),
                      st.integers(2**64 - 2, 2**64 + 1))


def _as_numpy(x):
    """x as a numpy integer of the same value where int64 or uint64 holds it, else x."""
    if -(2**63) <= x < 2**63:
        return np.int64(x)
    return np.uint64(x) if 0 <= x < 2**64 else x


@settings(max_examples=200, deadline=None)
@given(WIDE_INTS, st.lists(WIDE_INTS, min_size=1, max_size=5),
       st.lists(WIDE_INTS, min_size=1, max_size=4))
def test_stream_keys_match_stream_objects(seed, ids, tags):
    expected = [_key_reference(seed, i) for i in ids]
    expected_sub = [[_substream_key_reference(seed, k, t) for t in tags] for k in expected]
    keys = rng_mod.stream_keys(seed, ids)
    assert keys.dtype == np.uint64
    assert keys.tolist() == expected
    assert [RngStream(seed, i).key for i in ids] == expected
    sub = rng_mod.substream_keys(seed, keys, tags)
    assert sub.shape == (len(ids), len(tags))
    assert sub.tolist() == expected_sub
    assert [[RngStream(seed, i).substream(t).key for t in tags] for i in ids] == expected_sub
    # numpy integers give the keys of the Python ints of the same value
    np_seed = _as_numpy(seed)
    np_ids, np_tags = [_as_numpy(i) for i in ids], [_as_numpy(t) for t in tags]
    assert rng_mod.stream_keys(np_seed, np_ids).tolist() == expected
    assert rng_mod.substream_keys(np_seed, keys, np_tags).tolist() == expected_sub
    np_subs = [[RngStream(np_seed, i).substream(t).key for t in np_tags] for i in np_ids]
    assert np_subs == expected_sub
    # floats are refused, even integral ones
    for call in (lambda: RngStream(float(seed)), lambda: RngStream(seed, float(ids[0])),
                 lambda: RngStream(seed).substream(float(tags[0])),
                 lambda: rng_mod.stream_keys(float(seed), ids),
                 lambda: rng_mod.stream_keys(seed, [float(ids[0])]),
                 lambda: rng_mod.substream_keys(seed, keys, [float(tags[0])])):
        with pytest.raises(TypeError):
            call()
    # draws read from a key array are the stream's own draws
    assert rng_mod.stream_uniforms(sub, [0, 3]).tobytes() == np.array(
        [[RngStream(seed, i).substream(t).uniforms_at([0, 3]) for t in tags] for i in ids]
    ).tobytes()


def test_one_draw_of_one_stream_wraps_without_a_warning():
    # the 0-d path wraps its counter modulo 2**64 as the array path does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draw = rng_mod.stream_uniforms(RngStream(1), 3)
    assert draw == RngStream(1).uniforms(4)[3]


EDGES = [0, 1, -1, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64, 2**64 + 1]


def test_keys_match_reference_at_word_edges():
    # numpy scalar products warn when they wrap, and warnings fail the tests
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in EDGES:
            for i in EDGES:
                expected = _key_reference(seed, i)
                subs = [_substream_key_reference(seed, expected, t) for t in EDGES]
                for r in (RngStream(seed, i), RngStream(_as_numpy(seed), _as_numpy(i))):
                    assert r.key == expected
                    assert [r.substream(t).key for t in EDGES] == subs
                    assert [r.substream(_as_numpy(t)).key for t in EDGES] == subs


def test_draw_counts_must_be_integers():
    with pytest.raises(TypeError):
        RngStream(1).uniforms(2.5)
    with pytest.raises(TypeError):
        RngStream(1).uniforms(2.0)
    assert RngStream(1).uniforms(np.int64(3)).tobytes() == RngStream(1).uniforms(3).tobytes()
