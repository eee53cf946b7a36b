"""Dense numeric kernels shared by every other module.

Everything is float64. All randomness in the project flows through
:class:`SeededRng`, which wraps a single fixed PRNG (PCG64) so that any
experiment is reproducible from one integer seed.
"""

import numpy as np

DEFAULT_SIGMOID_CLIP = 50.0

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64(x):
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fnv1a64(label):
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class SeededRng:
    """Deterministic random stream: PCG64 seeded with a 64-bit integer.

    Labelled child streams (``derive``) are independent and reproducible,
    which lets one root seed govern corpus synthesis, weight init,
    shuffling and sampling without the streams interfering.
    """

    def __init__(self, seed):
        self.seed = int(seed) & _MASK64
        self.generator = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, label):
        """Child stream keyed by ``label``: splitmix64(seed XOR fnv1a(label))."""
        return SeededRng(_splitmix64(self.seed ^ _fnv1a64(label)))

    def uniform(self, low, high, size=None):
        return self.generator.uniform(low, high, size)

    def random(self, size=None):
        """One float in [0, 1), or an array of ``size`` of them; a block of
        n values equals n scalar draws taken one after another."""
        return self.generator.random(size)

    def integers(self, low, high):
        return int(self.generator.integers(low, high))

    def shuffle(self, seq):
        self.generator.shuffle(seq)


def is_int(value):
    """An int or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value):
    """An int, float or numpy real scalar, not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def sigmoid_clipped(z, clip=DEFAULT_SIGMOID_CLIP, out=None):
    """Elementwise 1/(1+exp(-z)) with the argument clamped to [-clip, clip].

    Outputs stay strictly inside (0, 1): the recurrent state and the
    reconstruction cross-entropy rely on that, and for z above ~36.7 the
    exact sigmoid rounds to 1.0 in float64, so the result is capped one ulp
    below 1 (σ(-clip) is representable on the low side as is). With
    ``out``, a float64 array of the result's shape, the result is written
    there and ``out`` is returned.

    The upper clamp runs only for ``clip < 37``. From z = 53·ln 2 ≈ 36.74
    on, exp(-z) is at most 2**-53, half an ulp of 1, so ``1 + exp(-z)``
    rounds to 1 (a tie goes to the even 1.0). So for ``clip >= 37`` every
    z ≥ clip, +inf included, gives 1.0 and is capped to ``_BELOW_ONE``, as
    σ(clip) is: the bytes equal the two-sided clamp's.
    """
    if clip <= 0:
        raise ValueError("clip must be positive")
    # np.minimum/np.maximum clamp as np.clip does (also on +-inf, +-0 and
    # NaN) without its Python wrapper; float32 input still gives float64
    z = np.maximum(np.asarray(z, dtype=np.float64), -clip)
    if clip < 37:
        z = np.minimum(z, clip, out=z)
    return np.minimum(1.0 / (1.0 + np.exp(-z)), _BELOW_ONE, out=out)


def sigmoid_clip_mask(z, clip=DEFAULT_SIGMOID_CLIP):
    """1.0 where the clamp in sigmoid_clipped is inactive, 0.0 where it saturates.

    The clamped sigmoid has exactly zero derivative outside [-clip, clip];
    backpropagation must use this mask to stay consistent with the forward pass.
    """
    z = np.asarray(z, dtype=np.float64)
    return ((z >= -clip) & (z <= clip)).astype(np.float64)


def softmax(z):
    """Numerically stable softmax over the last axis (max-subtracted); each
    row sums to 1."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def multinomial_sample(p, rng):
    """Draw one index from the distribution ``p`` using one uniform variate."""
    p = np.asarray(p, dtype=np.float64)
    # a NaN or inf entry makes the sum NaN or inf, which is never within 1e-9 of 1
    if p.ndim != 1 or np.any(p < 0) or not abs(p.sum() - 1.0) <= 1e-9:
        raise ValueError("multinomial_sample expects a probability vector summing to 1")
    cdf = np.cumsum(p)
    u = rng.random() * cdf[-1]
    return int(np.searchsorted(cdf, u, side="right").clip(0, p.size - 1))
