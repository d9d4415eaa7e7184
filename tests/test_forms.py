import math

import numpy as np
import pytest

from helpers import octahedron_mesh_area, sample_deficits
from octmoduli import (ChartPoint, area, gram_matrix, lorentz_product, make_deficits,
                       signature, spectrum, trig_pack)
from octmoduli.errors import DegenerateForm, NonPositiveDeficit, SumNotTwoPi

EQUILATERAL = make_deficits(2 * math.pi / 3, 2 * math.pi / 3, 2 * math.pi / 3)
RIGHT = make_deficits(math.pi, math.pi / 2, math.pi / 2)


def test_make_deficits_accepts_valid_triples():
    d = make_deficits(2 * math.pi / 3, 2 * math.pi / 3, 2 * math.pi / 3)
    assert d.as_tuple() == pytest.approx((2 * math.pi / 3,) * 3, abs=1e-15)
    d = make_deficits(math.pi, math.pi / 2, math.pi / 2)
    assert sum(d.as_tuple()) == pytest.approx(2 * math.pi, abs=1e-15)


def test_make_deficits_rejects_wrong_sum():
    with pytest.raises(SumNotTwoPi):
        make_deficits(math.pi, math.pi, math.pi)


def test_make_deficits_rejects_nonpositive():
    with pytest.raises(NonPositiveDeficit):
        make_deficits(0.0, math.pi, math.pi)
    with pytest.raises(NonPositiveDeficit):
        make_deficits(-1.0, math.pi, math.pi + 1.0)
    with pytest.raises(NonPositiveDeficit):
        make_deficits(2 * math.pi, 1e-12, 1e-12)


def test_make_deficits_renormalizes_to_exact_sum():
    d = make_deficits(2.0, 2.0, 2 * math.pi - 4.0 + 3e-10)
    assert abs(sum(d.as_tuple()) - 2 * math.pi) <= 5e-16


def test_trig_pack_equilateral():
    t = trig_pack(EQUILATERAL)
    assert t.s == pytest.approx((math.sqrt(3) / 2,) * 3, abs=1e-15)
    assert t.c == pytest.approx((0.5,) * 3, abs=1e-15)


def test_trig_pack_right_case():
    t = trig_pack(RIGHT)
    assert t.s == pytest.approx((1.0, math.sqrt(2) / 2, math.sqrt(2) / 2), abs=1e-15)
    assert t.c == pytest.approx((0.0, math.sqrt(2) / 2, math.sqrt(2) / 2), abs=1e-15)


def test_trig_pack_pythagorean_and_angle_sum_identity():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        t = trig_pack(sample_deficits(rng))
        s, c = t.s, t.c
        for i in range(3):
            assert abs(s[i] ** 2 + c[i] ** 2 - 1.0) <= 1e-15
        # sin(delta_i/2) = sin(delta_j/2 + delta_k/2) for every labeling
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            assert abs(s[i] - (s[j] * c[k] + s[k] * c[j])) <= 1e-14


def test_gram_matrix_pattern():
    m = gram_matrix(trig_pack(EQUILATERAL))
    assert not m.flags.writeable
    off = math.sqrt(3) / 2
    assert np.allclose(m, off * (np.ones((4, 4)) - np.eye(4)), atol=1e-15)

    m = gram_matrix(trig_pack(RIGHT))
    assert m[0].tolist() == pytest.approx([0.0, 1.0, math.sqrt(2) / 2, math.sqrt(2) / 2],
                                          abs=1e-15)

    rng = np.random.default_rng(12)
    for _ in range(100):
        t = trig_pack(sample_deficits(rng))
        m = gram_matrix(t)
        assert np.all(np.diag(m) == 0.0)
        assert np.array_equal(m, m.T)
        assert m[1].tolist() == [t.s1, 0.0, t.s3, t.s2]
        assert m[2].tolist() == [t.s2, t.s3, 0.0, t.s1]
        assert m[3].tolist() == [t.s3, t.s2, t.s1, 0.0]


def test_spectrum_equilateral():
    # substituting S = sqrt(3)/2 into the factored roots
    x = spectrum(trig_pack(EQUILATERAL)).as_tuple()
    s = math.sqrt(3) / 2
    assert x == pytest.approx((3 * s, -s, -s, -s), abs=1e-15)
    numeric = np.linalg.eigvalsh(gram_matrix(trig_pack(EQUILATERAL)))
    assert sorted(x) == pytest.approx(numeric.tolist(), abs=1e-14)


def test_spectrum_right_case():
    x = spectrum(trig_pack(RIGHT)).as_tuple()
    r2 = math.sqrt(2)
    assert x == pytest.approx((1 + r2, -1.0, -1.0, 1 - r2), abs=1e-15)


def test_spectrum_matches_numeric_eigensolver():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        t = trig_pack(sample_deficits(rng))
        roots = spectrum(t).as_tuple()
        assert roots[0] > 0 and all(x < 0 for x in roots[1:])
        numeric = np.linalg.eigvalsh(gram_matrix(t))
        assert np.max(np.abs(np.array(sorted(roots)) - numeric)) <= 1e-10


def test_eigenvectors_of_gram_matrix():
    # fixed sign-pattern vectors with eigenvalues x1, x4, x3, x2
    vectors = {
        (1, 1, 1, 1): 0,
        (1, 1, -1, -1): 3,
        (1, -1, 1, -1): 2,
        (1, -1, -1, 1): 1,
    }
    rng = np.random.default_rng(14)
    for _ in range(100):
        t = trig_pack(sample_deficits(rng))
        m = gram_matrix(t)
        roots = spectrum(t).as_tuple()
        for vec, idx in vectors.items():
            u = np.array(vec, dtype=float)
            assert np.max(np.abs(m @ u - roots[idx] * u)) <= 1e-12


def test_signature_is_one_three():
    assert signature(trig_pack(EQUILATERAL)) == (1, 3)
    assert signature(trig_pack(RIGHT)) == (1, 3)
    rng = np.random.default_rng(15)
    for _ in range(200):
        assert signature(trig_pack(sample_deficits(rng))) == (1, 3)


def test_signature_degenerate_limit():
    # delta1 -> 2*pi forces the smallest eigenvalue magnitude below threshold
    eps = 1e-5
    t = trig_pack(make_deficits(2 * math.pi - 2 * eps, eps, eps))
    with pytest.raises(DegenerateForm):
        signature(t)


def test_lorentz_product_examples():
    t = trig_pack(EQUILATERAL)
    # 4(S1+S2+S3) = 6*sqrt(3) by expanding the polarization by hand
    assert lorentz_product((1, 1, 1, 1), (1, 1, 1, 1), t) == pytest.approx(
        6 * math.sqrt(3), abs=1e-14)
    # each bracket contributes 5, total 15*S with S = sqrt(3)/2
    assert lorentz_product((1, 1, 1, 1), (2, 1, 1, 1), t) == pytest.approx(
        15 * math.sqrt(3) / 2, abs=1e-14)
    rng = np.random.default_rng(16)
    for _ in range(50):
        t = trig_pack(sample_deficits(rng))
        assert lorentz_product((1, 0, 0, 0), (1, 0, 0, 0), t) == 0.0


def test_lorentz_product_symmetric_bilinear():
    rng = np.random.default_rng(17)
    for _ in range(200):
        t = trig_pack(sample_deficits(rng))
        p, q, r = rng.normal(size=(3, 4))
        lam = float(rng.normal())
        sym = lorentz_product(p, q, t) - lorentz_product(q, p, t)
        assert abs(sym) <= 1e-12 * max(1.0, abs(lorentz_product(p, q, t)))
        lhs = lorentz_product(p + lam * q, r, t)
        rhs = lorentz_product(p, r, t) + lam * lorentz_product(q, r, t)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_area_examples():
    t = trig_pack(EQUILATERAL)
    assert area(ChartPoint(1, 1, 1, 1), t) == pytest.approx(6 * math.sqrt(3), abs=1e-14)
    # only the ab term survives: 2 * 1 * S1
    assert area(ChartPoint(1, 1, 0, 0), t) == pytest.approx(math.sqrt(3), abs=1e-15)


def test_area_regular_octahedron_against_mesh_oracle():
    e = np.eye(3)
    mesh = octahedron_mesh_area(e[0], e[1], e[2])
    assert mesh == pytest.approx(4 * math.sqrt(3), abs=1e-12)
    s = math.sqrt(2.0 / 3.0)
    formula = area(ChartPoint(s, s, s, s), trig_pack(EQUILATERAL))
    assert formula == pytest.approx(mesh, abs=1e-12)


def test_area_equals_product_and_scales_quadratically():
    rng = np.random.default_rng(18)
    for _ in range(200):
        t = trig_pack(sample_deficits(rng))
        p = ChartPoint(*np.exp(rng.uniform(-1, 1, size=4)))
        assert area(p, t) == lorentz_product(p, p, t)
        lam = float(np.exp(rng.uniform(-1, 1)))
        scaled = ChartPoint(lam * p.a, lam * p.b, lam * p.c, lam * p.d)
        assert abs(area(scaled, t) - lam ** 2 * area(p, t)) <= 1e-12 * area(scaled, t)
