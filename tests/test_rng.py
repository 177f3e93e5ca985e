import numpy as np
import pytest

from hypertail import TrialStream
from hypertail.rng import uniform_block

TOP = (1 << 64) - 1


def test_same_address_same_stream():
    a = TrialStream(42, trial=7, lane=3).uniforms(16)
    b = TrialStream(42, trial=7, lane=3).uniforms(16)
    assert np.array_equal(a, b)


def test_distinct_addresses_distinct_streams():
    base = TrialStream(42, trial=7, lane=3).uniforms(16)
    for other in (
        TrialStream(42, trial=8, lane=3),
        TrialStream(42, trial=7, lane=4),
        TrialStream(43, trial=7, lane=3),
    ):
        assert not np.array_equal(base, other.uniforms(16))


def test_matrix_rows_are_sequential_blocks():
    # round r occupies positions [r*cols, (r+1)*cols) of the stream
    stream = TrialStream(5, trial=2, lane=1)
    matrix = stream.uniform_matrix(3, 11)
    gen = stream.generator()
    for row in range(3):
        assert np.array_equal(matrix[row], gen.random(11))


def test_prefix_stability():
    # drawing more uniforms never changes earlier positions
    short = TrialStream(9, 1).uniforms(10)
    long = TrialStream(9, 1).uniforms(1000)
    assert np.array_equal(short, long[:10])


def test_validation():
    with pytest.raises(ValueError):
        TrialStream(-1)
    with pytest.raises(ValueError):
        TrialStream(0, trial=-2)
    with pytest.raises(ValueError):
        TrialStream(0, lane=1 << 64)


def test_huge_seed_accepted():
    stream = TrialStream(2**200 + 17, trial=0)
    assert stream.uniforms(4).shape == (4,)


@pytest.mark.parametrize("seed,first,lane", [
    (42, 0, 1),
    (42, TOP - 2, 1),  # the last row is trial 2^64 - 1
    (42, 5, TOP),
    (2**128 + 9, 3, 2),  # the key keeps the seed's low 128 bits, as TrialStream's does
])
def test_block_rows_are_the_trials_own_streams(seed, first, lane):
    block = uniform_block(seed, first, lane, 3, 7)  # 7 uniforms leave a partly used buffer
    assert block.shape == (3, 7)
    for t in range(3):
        assert np.array_equal(block[t], TrialStream(seed, first + t, lane).uniforms(7))


def test_blocks_drawn_in_turn_equal_fresh_draws():
    first = uniform_block(8, 0, 4, 5, 13)
    second = uniform_block(8, 5, 4, 5, 13)
    again = uniform_block(8, 0, 4, 10, 13)
    assert np.array_equal(np.vstack([first, second]), again)
    assert np.array_equal(again[9], TrialStream(8, 9, 4).uniforms(13))
    assert uniform_block(8, 3, 4, 0, 13).shape == (0, 13)


@pytest.mark.parametrize("seed,first,count,lane", [
    (-1, 0, 2, 0),
    (0, -1, 2, 0),
    (0, TOP, 2, 0),  # the second row would be trial 2^64
    (0, 0, 2, TOP + 1),
    (0, -1, 0, 0),
])
def test_block_rejects_the_addresses_trial_streams_reject(seed, first, count, lane):
    last = first + max(count, 1) - 1
    with pytest.raises(ValueError) as stream_error:
        for trial in (first, last):
            TrialStream(seed, trial, lane)
    with pytest.raises(ValueError, match=f"^{stream_error.value}$"):
        uniform_block(seed, first, lane, count, 4)
