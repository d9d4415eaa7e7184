import math

import mpmath as mp
import numpy as np
import pytest

from helpers import sample_deficits
from octmoduli import (lobachevsky, make_deficits, monte_carlo_volume, tetrahedron_volume,
                       volume)
from octmoduli.errors import BadSampleCount, BadTruncation

EQUILATERAL = make_deficits(2 * math.pi / 3, 2 * math.pi / 3, 2 * math.pi / 3)
RIGHT = make_deficits(math.pi, math.pi / 2, math.pi / 2)

# 3 * L(pi/3), the regular ideal tetrahedron volume
V_EQUILATERAL = 1.0149416064096536
CATALAN = 0.9159655941772190


def quad_lobachevsky(x: float) -> float:
    """Defining-integral oracle, evaluated by adaptive quadrature."""
    with mp.workdps(30):
        return float(-mp.quad(lambda t: mp.log(2 * mp.sin(t)), [0, x]))


def test_lobachevsky_zeros():
    assert lobachevsky(0.0) == 0.0
    assert abs(lobachevsky(math.pi / 2)) <= 1e-15
    assert abs(lobachevsky(math.pi)) <= 1e-15


def test_lobachevsky_against_quadrature():
    for x in (math.pi / 3, math.pi / 4, math.pi / 6, 0.1, 1.2, 1.5):
        assert abs(lobachevsky(x) - quad_lobachevsky(x)) <= 1e-12
    # frozen oracle value for the most important argument
    assert lobachevsky(math.pi / 3) == pytest.approx(0.3383138688032179, abs=1e-12)
    assert lobachevsky(math.pi / 4) == pytest.approx(CATALAN / 2, abs=1e-13)


def test_lobachevsky_odd_and_periodic():
    rng = np.random.default_rng(61)
    for x in rng.uniform(-10, 10, size=500):
        assert abs(lobachevsky(-x) + lobachevsky(x)) <= 1e-12
        assert abs(lobachevsky(x + math.pi) - lobachevsky(x)) <= 1e-12


def test_lobachevsky_duplication_identity():
    rng = np.random.default_rng(62)
    for x in rng.uniform(-4, 4, size=500):
        lhs = lobachevsky(2 * x) / 2
        rhs = lobachevsky(x) + lobachevsky(x + math.pi / 2)
        assert abs(lhs - rhs) <= 1e-10


def test_tetrahedron_volume_presets():
    assert tetrahedron_volume(EQUILATERAL) == pytest.approx(V_EQUILATERAL, abs=1e-9)
    assert tetrahedron_volume(EQUILATERAL) == pytest.approx(
        3 * quad_lobachevsky(math.pi / 3), abs=1e-12)
    assert tetrahedron_volume(RIGHT) == pytest.approx(CATALAN, abs=1e-9)
    assert tetrahedron_volume(RIGHT) == pytest.approx(
        quad_lobachevsky(math.pi / 2) + 2 * quad_lobachevsky(math.pi / 4), abs=1e-12)


def test_tetrahedron_volume_degenerate_limit():
    eps = 1e-6
    v = tetrahedron_volume(make_deficits(2 * math.pi - 2 * eps, eps, eps))
    assert 0.0 < v < 1e-4


def test_tetrahedron_volume_maximized_at_equilateral():
    rng = np.random.default_rng(63)
    vmax = tetrahedron_volume(EQUILATERAL)
    for _ in range(10_000):
        assert tetrahedron_volume(sample_deficits(rng, margin=1e-3)) <= vmax + 1e-9


def test_monte_carlo_validation():
    with pytest.raises(BadSampleCount):
        monte_carlo_volume(EQUILATERAL, 999, seed=1)
    with pytest.raises(BadTruncation):
        monte_carlo_volume(EQUILATERAL, 10_000, seed=1, truncation=0.5)
    with pytest.raises(BadTruncation):
        monte_carlo_volume(EQUILATERAL, 10_000, seed=1, truncation=0.0)


def test_monte_carlo_deterministic_and_worker_independent():
    a = monte_carlo_volume(EQUILATERAL, 200_000, seed=7)
    b = monte_carlo_volume(EQUILATERAL, 200_000, seed=7)
    c = monte_carlo_volume(EQUILATERAL, 200_000, seed=7, workers=4)
    assert a == b == c
    d = monte_carlo_volume(EQUILATERAL, 200_000, seed=8)
    assert d.value != a.value


@pytest.mark.parametrize("workers, cpus, expected", [
    (10**6, 64, 2),  # capped by the shard count
    (10**6, 1, None),  # capped by the CPU count: serial, no executor
    (3, 64, 2),
    (2, 2, 2),
])
def test_monte_carlo_worker_cap(monkeypatch, workers, cpus, expected):
    created = []

    class SerialExecutor:
        """Stands in for ThreadPoolExecutor: records max_workers, starts no thread."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(volume, "ThreadPoolExecutor", SerialExecutor)
    monkeypatch.setattr(volume.os, "cpu_count", lambda: cpus)
    samples = 2 * volume._SHARD_SIZE - 1  # two shards
    est = monte_carlo_volume(EQUILATERAL, samples, seed=7, workers=workers)
    assert created == ([] if expected is None else [expected])
    assert est == monte_carlo_volume(EQUILATERAL, samples, seed=7)


def test_monte_carlo_estimate_accuracy():
    est = monte_carlo_volume(EQUILATERAL, 1_000_000, seed=5)
    assert est.samples == 1_000_000
    assert est.std_error > 0
    assert abs(est.value - V_EQUILATERAL) / V_EQUILATERAL <= 0.03


def test_monte_carlo_std_error_scales_with_samples():
    # at truncation 0.1 the weight distribution is well sampled at both sizes,
    # so the reported errors follow the 1/sqrt(N) law
    se_small = monte_carlo_volume(EQUILATERAL, 100_000, seed=7, truncation=0.1).std_error
    se_big = monte_carlo_volume(EQUILATERAL, 10_000_000, seed=7, truncation=0.1).std_error
    assert 5.0 <= se_small / se_big <= 20.0
