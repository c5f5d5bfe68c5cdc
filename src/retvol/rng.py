"""Reproducible random number generation for synthetic series.

The generator is frozen so that any reimplementation (in any language)
reproduces the same streams bit-for-bit at the integer level:

* Uniform 64-bit stream: splitmix64 in counter mode. Output ``i``
  (1-based) is ``mix64(seed + i * 0x9E3779B97F4A7C15)`` with the mix
  function of Steele, Lea & Flood's SplittableRandom::

      z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
      z ^= z >> 27;  z *= 0x94D049BB133111EB
      z ^= z >> 31

  All arithmetic is modulo 2^64.
* Uniforms in [0, 1): the top 53 bits, ``(z >> 11) * 2^-53``.
* Normals: Box-Muller, consuming the 64-bit stream pairwise::

      u1 = ((a >> 11) + 1) * 2^-53        # in (0, 1], keeps log finite
      u2 = (b >> 11) * 2^-53              # in [0, 1)
      z0 = sqrt(-2 ln u1) * cos(2 pi u2)
      z1 = sqrt(-2 ln u1) * sin(2 pi u2)

  Draw 2k-1 and 2k come from stream outputs (a, b) = (2k-1, 2k).

The integer stream is exactly reproducible everywhere; the float
transform is deterministic for a given libm (at most 1-ulp differences
across platforms).
"""

import numpy as np

from .errors import ConfigInvalid

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def splitmix64(seed, n, offset=0):
    """Return outputs offset+1 .. offset+n of the splitmix64 stream for `seed`.

    Parameters
    ----------
    seed : int
        64-bit seed (taken modulo 2^64).
    n : int
        Number of outputs.
    offset : int
        Number of stream outputs to skip (counter mode makes this free).

    Returns
    -------
    numpy.ndarray of uint64, shape (n,)
    """
    if n < 0:
        raise ConfigInvalid("n must be >= 0")
    idx = np.arange(offset + 1, offset + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GOLDEN) & _U64
        z = ((z ^ (z >> np.uint64(30))) * _MIX1) & _U64
        z = ((z ^ (z >> np.uint64(27))) * _MIX2) & _U64
        z = z ^ (z >> np.uint64(31))
    return z


def standard_normals(seed, n):
    """Standard normal samples via Box-Muller on the splitmix64 stream.

    Deterministic for a given seed: the k-th call argument pattern is
    fixed by the module docstring, so the same (seed, n) always yields
    the same array, and a longer request extends a shorter one.
    """
    if n < 0:
        raise ConfigInvalid("n must be >= 0")
    pairs = (n + 1) // 2
    raw = splitmix64(seed, 2 * pairs)
    a = raw[0::2]
    b = raw[1::2]
    u1 = ((a >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (b >> np.uint64(11)).astype(np.float64) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]
