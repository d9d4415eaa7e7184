"""Lobachevsky function and the hyperbolic volume of the moduli tetrahedron.

The moduli space with deficits (delta1, delta2, delta3) is an ideal
tetrahedron of volume L(delta1/2) + L(delta2/2) + L(delta3/2), with
L(x) = -integral_0^x log(2 sin t) dt the Lobachevsky function.  L is odd and
pi-periodic, so it suffices to evaluate on [0, pi/2], where the power series

    L(x) = x - x log(2x) + x * sum_{n>=1} zeta(2n)/(n(2n+1)) (x/pi)^(2n)

converges geometrically (ratio <= 1/4).  A truncated Monte Carlo integral of
the hyperbolic volume element over the Klein-model tetrahedron serves as an
independent check of the closed form.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BadSampleCount, BadTruncation
from .forms import ConeDeficits, trig_pack
from .moduli import klein_ideal_vertices

# zeta(2n) for n = 1..40 (mpmath, 18 significant digits)
_ZETA_EVEN = (
    1.64493406684822644, 1.08232323371113819, 1.01734306198444914, 1.00407735619794434,
    1.00099457512781809, 1.00024608655330805, 1.0000612481350587, 1.00001528225940865,
    1.000003817293265, 1.00000095396203387, 1.00000023845050273, 1.00000005960818905,
    1.00000001490155483, 1.00000000372533402, 1.00000000093132743, 1.00000000023283118,
    1.00000000005820772, 1.00000000001455192, 1.00000000000363798, 1.00000000000090949,
    1.00000000000022737, 1.00000000000005684, 1.00000000000001421, 1.00000000000000355,
    1.00000000000000089, 1.00000000000000022, 1.00000000000000006, 1.00000000000000001,
    1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
)

_SHARD_SIZE = 1 << 16

MIN_SAMPLES = 10_000
MAX_TRUNCATION = 0.1


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte Carlo volume with its standard error and reproducibility data."""

    value: float
    std_error: float
    samples: int
    seed: int


def _lobachevsky_principal(x: float) -> float:
    """Series evaluation on [0, pi/2]."""
    if x == 0.0:
        return 0.0
    ratio = (x / math.pi) ** 2
    power = 1.0
    acc = 0.0
    for n, zeta in enumerate(_ZETA_EVEN, start=1):
        power *= ratio
        term = zeta * power / (n * (2 * n + 1))
        acc += term
        if term < 1e-18:
            break
    return x - x * math.log(2.0 * x) + x * acc


def lobachevsky(x: float) -> float:
    """Lobachevsky function, odd and pi-periodic, accurate to ~1e-15 absolute."""
    r = math.fmod(float(x), math.pi)
    if r < 0.0:
        r += math.pi
    if r > math.pi / 2:
        return -_lobachevsky_principal(math.pi - r)
    return _lobachevsky_principal(r)


def tetrahedron_volume(d: ConeDeficits) -> float:
    """Closed-form hyperbolic volume of the moduli tetrahedron."""
    return (lobachevsky(d.delta1 / 2) + lobachevsky(d.delta2 / 2)
            + lobachevsky(d.delta3 / 2))


def _shard_sums(seed: int, shard: int, count: int, vertices: np.ndarray,
                cutoff: float) -> tuple[float, float]:
    """Weight sums over one substream: (sum w, sum w^2)."""
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [seed % (1 << 64), shard], dtype=np.uint64)))
    u = rng.random((count, 4))
    w = -np.log1p(-u)
    norm = w.sum(axis=1)
    norm[norm == 0.0] = 1.0
    pts = (w / norm[:, None]) @ vertices
    r2 = np.einsum("ij,ij->i", pts, pts)
    f = np.where(r2 <= cutoff, 1.0 / (1.0 - r2) ** 2, 0.0)
    return float(f.sum()), float((f * f).sum())


def monte_carlo_volume(d: ConeDeficits, samples: int, seed: int,
                       truncation: float = 1e-3, workers: int = 1) -> VolumeEstimate:
    """Monte Carlo check of tetrahedron_volume in the Klein model.

    Samples points uniformly in the Euclidean tetrahedron spanned by the four
    Klein ideal vertices, weights by the hyperbolic density 1/(1-r^2)^2, and
    discards points with r^2 > 1 - truncation (the density blows up at the
    ideal vertices).  The estimate converges to the closed form as samples
    grow and truncation shrinks.

    Sampling is split into fixed-size substreams keyed by (seed, shard), so
    the result is bit-identical for any worker count.  At most
    min(workers, shard count, CPU count) threads run.
    """
    samples = int(samples)
    if samples < MIN_SAMPLES:
        raise BadSampleCount(f"need at least {MIN_SAMPLES} samples, got {samples}")
    if not (0.0 < truncation <= MAX_TRUNCATION):
        raise BadTruncation(f"truncation {truncation!r} outside (0, {MAX_TRUNCATION}]")

    vertices = klein_ideal_vertices(trig_pack(d))
    simplex_volume = abs(float(np.linalg.det(vertices[1:] - vertices[0]))) / 6.0
    cutoff = 1.0 - truncation

    shards = [(s, min(_SHARD_SIZE, samples - s * _SHARD_SIZE))
              for s in range((samples + _SHARD_SIZE - 1) // _SHARD_SIZE)]
    # more threads than shards or CPUs only adds start-up cost
    workers = min(workers, len(shards), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(
                lambda sc: _shard_sums(seed, sc[0], sc[1], vertices, cutoff), shards))
    else:
        partials = [_shard_sums(seed, s, n, vertices, cutoff) for s, n in shards]

    # combine in shard order so the float result ignores scheduling
    sum_w = 0.0
    sum_w2 = 0.0
    for pw, pw2 in partials:
        sum_w += pw
        sum_w2 += pw2

    mean = sum_w / samples
    var = max(sum_w2 - samples * mean * mean, 0.0) / (samples - 1)
    std_error = simplex_volume * math.sqrt(var / samples)
    return VolumeEstimate(simplex_volume * mean, std_error, samples, seed)
