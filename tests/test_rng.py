import numpy as np
import pytest

from fastslow.rng import stream_uniforms


@pytest.mark.parametrize("seed", [0, 7, 2024, 2**64 + 3, 2**128 - 1])
@pytest.mark.parametrize("n", [1, 5000])
def test_stream_uniforms_equal_per_stream_generators(seed, n):
    expected = np.array([
        np.random.Generator(np.random.Philox(key=(seed ^ k) & (2**128 - 1))).random()
        for k in range(n)
    ])
    got = stream_uniforms(seed, n)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_stream_uniforms_empty():
    got = stream_uniforms(2024, 0)
    assert got.dtype == np.float64 and got.shape == (0,)
