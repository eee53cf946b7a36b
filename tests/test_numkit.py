import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bicap.numkit import SeededRng, multinomial_sample, sigmoid_clipped, softmax

finite_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def test_sigmoid_at_zero():
    assert sigmoid_clipped(np.array([0.0]))[0] == 0.5


def test_sigmoid_symmetry():
    for t in (0.3, 1.7, 12.0):
        pair = sigmoid_clipped(np.array([-t, t]))
        assert pair.sum() == pytest.approx(1.0, abs=1e-15)


def test_sigmoid_clips_large_arguments():
    out = sigmoid_clipped(np.array([1000.0]), clip=50.0)
    assert out[0] == pytest.approx(1.0 / (1.0 + math.exp(-50.0)), rel=1e-15)
    # the clamp at its edge values, as the two-sided np.clip gives it, for
    # float64 and float32 input and clips on both sides of 37, from which on
    # the upper clamp is skipped
    near_cap = np.linspace(36.0, 60.0, 97)[1:-1]
    for clip in (5.0, 36.5, 37.0, 50.0):
        edges = np.concatenate([[math.inf, -math.inf, 0.0, -0.0, math.nan, clip, -clip,
                                 1000.0, -1000.0], near_cap, -near_cap])
        for z in (edges, edges.astype(np.float32)):
            want = np.minimum(1.0 / (1.0 + np.exp(-np.clip(z.astype(np.float64), -clip, clip))),
                              np.nextafter(1.0, 0.0))
            out = sigmoid_clipped(z, clip=clip)
            assert out.dtype == np.float64 and out.tobytes() == want.tobytes()
            # written into a caller's array, byte-equal to the allocating call
            buf = np.full(len(edges), 7.0)
            assert sigmoid_clipped(z, clip=clip, out=buf) is buf
            assert buf.tobytes() == want.tobytes()


def test_sigmoid_rejects_bad_clip():
    with pytest.raises(ValueError):
        sigmoid_clipped(np.array([0.0]), clip=0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=20))
def test_sigmoid_monotone_and_bounded(values):
    z = np.sort(np.array(values))
    out = sigmoid_clipped(z)
    assert np.all(out > 0.0) and np.all(out < 1.0)
    assert np.all(np.diff(out) >= 0.0)


def test_softmax_equal_logits():
    assert np.allclose(softmax(np.array([2.5, 2.5, 2.5])), [1 / 3] * 3)


def test_softmax_analytic_case():
    out = softmax(np.array([0.0, math.log(2.0)]))
    assert np.allclose(out, [1 / 3, 2 / 3], atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=30),
       st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
def test_softmax_normalized_and_shift_invariant(values, shift):
    z = np.array(values)
    out = softmax(z)
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.allclose(out, softmax(z + shift), atol=1e-12)


def test_multinomial_degenerate():
    rng = SeededRng(0)
    assert all(multinomial_sample(np.array([1.0, 0.0, 0.0]), rng) == 0
               for _ in range(20))


def test_multinomial_determinism():
    p = np.array([0.2, 0.3, 0.5])
    a = [multinomial_sample(p, SeededRng(9)) for _ in range(1)]
    draws1 = []
    draws2 = []
    r1, r2 = SeededRng(9), SeededRng(9)
    for _ in range(50):
        draws1.append(multinomial_sample(p, r1))
        draws2.append(multinomial_sample(p, r2))
    assert draws1 == draws2


def test_multinomial_rejects_non_distribution():
    rng = SeededRng(0)
    with pytest.raises(ValueError):
        multinomial_sample(np.array([0.5, 0.6]), rng)
    with pytest.raises(ValueError):
        multinomial_sample(np.array([-0.1, 1.1]), rng)


def test_multinomial_rejects_nan_and_inf():
    # a NaN sum fails every comparison, so it must not pass as "close to 1"
    rng = SeededRng(0)
    for p in ([np.nan, 1.0], [np.nan, np.nan], [np.inf, 0.0], [0.5, np.inf, -np.inf]):
        with pytest.raises(ValueError, match="probability vector"):
            multinomial_sample(np.array(p), rng)


def test_multinomial_frequencies_chi_square():
    # 10,000 draws from [0.25, 0.75]; chi-square 99% critical value at
    # one degree of freedom is 6.635
    p = np.array([0.25, 0.75])
    rng = SeededRng(1234)
    n = 10_000
    counts = np.zeros(2)
    for _ in range(n):
        counts[multinomial_sample(p, rng)] += 1
    expected = p * n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 6.635


def test_rng_reproducible_and_labelled_streams():
    a = SeededRng(77)
    b = SeededRng(77)
    assert np.array_equal(a.uniform(-1, 1, 10), b.uniform(-1, 1, 10))
    child1 = SeededRng(77).derive("init")
    child2 = SeededRng(77).derive("init")
    other = SeededRng(77).derive("shuffle")
    assert child1.seed == child2.seed
    assert child1.seed != other.seed
    assert np.array_equal(child1.uniform(0, 1, 5), child2.uniform(0, 1, 5))


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (7, 6), (100, 12)])
def test_rng_block_equals_scalar_draws(shape):
    block = SeededRng(31).random(shape)
    scalar = SeededRng(31)
    expected = [scalar.random() for _ in range(shape[0] * shape[1])]
    assert block.shape == shape
    assert block.ravel().tolist() == expected
    assert isinstance(scalar.random(), float)
