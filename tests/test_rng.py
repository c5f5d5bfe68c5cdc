import numpy as np
import pytest

from retvol import rng
from retvol.errors import ConfigInvalid


def _splitmix64_reference(seed, n):
    # scalar reference straight from the published constants
    out = []
    state = seed & 0xFFFFFFFFFFFFFFFF
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        z = z ^ (z >> 31)
        out.append(z)
    return out


def test_matches_scalar_reference():
    got = rng.splitmix64(123456789, 64)
    want = _splitmix64_reference(123456789, 64)
    assert [int(v) for v in got] == want


def test_offset_is_stream_continuation():
    whole = rng.splitmix64(5, 100)
    tail = rng.splitmix64(5, 40, offset=60)
    assert np.array_equal(whole[60:], tail)


def test_deterministic_and_seed_sensitive():
    a = rng.standard_normals(7, 1000)
    b = rng.standard_normals(7, 1000)
    c = rng.standard_normals(8, 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_truncation_consistency():
    # odd-length request is the prefix of the even-length one
    a = rng.standard_normals(3, 999)
    b = rng.standard_normals(3, 1000)
    assert np.array_equal(a, b[:999])


def test_normals_have_standard_moments():
    z = rng.standard_normals(2024, 1_000_000)
    n = len(z)
    assert abs(z.mean()) < 5 / np.sqrt(n)
    assert abs(z.std() - 1.0) < 5 / np.sqrt(n)
    # no repeats of the exact same float in a healthy continuous stream
    assert len(np.unique(z)) > 0.999 * n


@pytest.mark.parametrize("draw", [rng.splitmix64, rng.standard_normals])
def test_negative_count_is_a_typed_error(draw):
    with pytest.raises(ConfigInvalid, match="n must be >= 0") as info:
        draw(7, -1)
    assert isinstance(info.value, ValueError)


def test_uniforms_in_unit_interval():
    # the docstring's uniforms: the top 53 bits of each stream output
    u = (rng.splitmix64(99, 100000) >> np.uint64(11)) * 2.0**-53
    assert u.min() >= 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
