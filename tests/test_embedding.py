import itertools
import math

import numpy as np
import pytest

from helpers import octahedron_mesh_area, sample_deficits
from octmoduli import (alpha_beta, area, chart, deficits, face_angles, mesh_area,
                       random_octahedron, trig_pack, validate)
from octmoduli.embedding import o_points
from octmoduli.errors import DegenerateVertices

E3 = np.eye(3)


def test_validate_regular_octahedron():
    e = validate(E3[0], E3[1], E3[2])
    assert np.array_equal(e.v1, E3[0])


def test_validate_rejects_coplanar_vertices():
    with pytest.raises(DegenerateVertices):
        validate(E3[0], E3[1], E3[0] + E3[1])


def test_validate_skew_support_example():
    # any independent triple passes the face-plane support test
    e = validate(E3[0], E3[1], [10.0, 10.0, 1.0])
    assert deficits(e).as_tuple() == pytest.approx(deficits(e).as_tuple())


def test_validate_accepts_only_octahedral_hulls_fuzz():
    # oracle for the support test validate does not need: every accepted triple,
    # also within 1e-14..1e-8 of dependence, has the origin and the three
    # opposite vertices strictly on one side of each of the 8 sign-triangle planes
    rng = np.random.default_rng(29)
    near_accepted = near_rejected = 0
    for i in range(2000):
        v1, v2, w = rng.normal(size=(3, 3))
        near = i % 2 == 1
        v3 = w
        if near:
            a, b = rng.normal(size=2)
            v3 = a * v1 + b * v2 + 10.0 ** rng.uniform(-14, -8) * w
        try:
            e = validate(v1, v2, v3)
        except DegenerateVertices:
            near_rejected += near
            continue
        near_accepted += near
        for e1, e2, e3 in itertools.product((1, -1), repeat=3):
            pts = [e1 * e.v1, e2 * e.v2, e3 * e.v3]
            n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
            h = float(np.dot(n, pts[0]))
            margins = [-h] + [-float(np.dot(n, p)) - h for p in pts]
            assert all(m > 0 for m in margins) or all(m < 0 for m in margins)
    assert near_accepted > 100 and near_rejected > 100


def test_face_angles_regular():
    fa = face_angles(validate(*E3))
    for face in ("T1", "T2", "T3", "T4"):
        for (f, v), val in fa.angles.items():
            if f == face:
                assert val == pytest.approx(math.pi / 3, abs=1e-14)


def test_face_angle_sums_and_antipodal_symmetry():
    rng = np.random.default_rng(21)
    for _ in range(100):
        e = random_octahedron(rng)
        fa = face_angles(e)
        pts = e.points()
        from octmoduli.embedding import FACE_VERTICES, _angle_at
        for face, labels in FACE_VERTICES.items():
            total = sum(fa.omega(face, v) for v in labels)
            assert abs(total - math.pi) <= 1e-12
            # recompute on the antipodal triangle: omega_{i'j'} = omega_{ij}
            anti = [-pts[v] for v in labels]
            for i, v in enumerate(labels):
                direct = _angle_at(anti[i], anti[(i + 1) % 3], anti[(i + 2) % 3])
                assert abs(direct - fa.omega(face, v)) <= 1e-12


def test_face_angle_against_dot_product_oracle():
    e = validate(2 * E3[0], E3[1], E3[2])
    fa = face_angles(e)
    # angle at v1 in T3 = (2e1, e2, e3) by the standard formula
    u = E3[1] - 2 * E3[0]
    v = E3[2] - 2 * E3[0]
    expected = math.acos(float(np.dot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v)))
    assert fa.omega("T3", "v1") == pytest.approx(expected, abs=1e-14)


def test_deficits_regular():
    d = deficits(validate(*E3))
    assert d.as_tuple() == pytest.approx((2 * math.pi / 3,) * 3, abs=1e-12)


def test_deficits_sum_and_range():
    rng = np.random.default_rng(22)
    for _ in range(300):
        d = deficits(random_octahedron(rng))
        assert abs(sum(d.as_tuple()) - 2 * math.pi) <= 1e-10
        assert all(0 < x < 2 * math.pi for x in d.as_tuple())
    d = deficits(validate(2 * E3[0], E3[1], E3[2]))
    assert all(0 < x < 2 * math.pi for x in d.as_tuple())


def test_alpha_beta_regular():
    alpha, beta = alpha_beta(face_angles(validate(*E3)))
    assert alpha == pytest.approx(math.pi / 6, abs=1e-14)
    assert beta == pytest.approx(math.pi / 6, abs=1e-14)


def test_alpha_beta_bounds_and_sum():
    rng = np.random.default_rng(23)
    for _ in range(300):
        e = random_octahedron(rng)
        fa = face_angles(e)
        alpha, beta = alpha_beta(fa)
        assert 0 < alpha < fa.omega("T3", "v3")
        assert 0 < beta < fa.omega("T3", "v2")
        assert abs(alpha + beta - deficits(e).delta1 / 2) <= 1e-12


def test_alpha_beta_rejects_corrupted_angle_table():
    fa = face_angles(validate(*E3))
    broken = dict(fa.angles)
    broken[("T1", "v2'")] = math.pi  # pushes alpha past omega33
    from octmoduli.embedding import FaceAngles
    from octmoduli.errors import BoundsViolated
    with pytest.raises(BoundsViolated):
        alpha_beta(FaceAngles(broken))


def test_chart_regular():
    p = chart(validate(*E3))
    s = math.sqrt(2.0 / 3.0)
    assert p.as_tuple() == pytest.approx((s, s, s, s), abs=1e-12)


def test_chart_congruent_triangle_lengths():
    # |O1 v2'| = |O3 v3| and |O1 v3'| = |O3 v2| (congruence of the defining triangles)
    rng = np.random.default_rng(24)
    for _ in range(100):
        e = random_octahedron(rng)
        o1, o3 = o_points(e)
        p = chart(e)
        assert abs(p.a - float(np.linalg.norm(o3 - e.v3))) <= 1e-12 * max(1.0, p.a)
        assert abs(p.b - float(np.linalg.norm(o3 - e.v2))) <= 1e-12 * max(1.0, p.b)


def test_area_identity_on_random_embeddings():
    # master oracle: mesh area equals the chart quadratic form
    rng = np.random.default_rng(25)
    worst = 0.0
    for _ in range(1000):
        e = random_octahedron(rng)
        direct = mesh_area(e)
        formula = area(chart(e), trig_pack(deficits(e)))
        worst = max(worst, abs(direct - formula) / direct)
    assert worst <= 1e-9


def test_mesh_area_matches_sign_triangle_oracle():
    rng = np.random.default_rng(26)
    for _ in range(50):
        e = random_octahedron(rng)
        assert mesh_area(e) == pytest.approx(
            octahedron_mesh_area(e.v1, e.v2, e.v3), rel=1e-13)


def test_chart_scaling():
    rng = np.random.default_rng(27)
    for _ in range(100):
        e = random_octahedron(rng)
        lam = float(np.exp(rng.uniform(-1.5, 1.5)))
        p = np.array(chart(e).as_tuple())
        q = np.array(chart(e.scaled(lam)).as_tuple())
        assert np.max(np.abs(q - lam * p)) <= 1e-12 * lam * np.max(p)
        d0 = np.array(deficits(e).as_tuple())
        d1 = np.array(deficits(e.scaled(lam)).as_tuple())
        assert np.max(np.abs(d1 - d0)) <= 1e-12


def test_chart_rotation_invariance():
    rng = np.random.default_rng(28)
    for _ in range(100):
        e = random_octahedron(rng)
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q *= np.sign(np.diag(r))
        rotated = validate(q @ e.v1, q @ e.v2, q @ e.v3)
        p0 = np.array(chart(e).as_tuple())
        p1 = np.array(chart(rotated).as_tuple())
        assert np.max(np.abs(p1 - p0)) <= 1e-10 * max(1.0, np.max(p0))


def test_random_octahedron_is_reproducible():
    a = random_octahedron(np.random.default_rng(99))
    b = random_octahedron(np.random.default_rng(99))
    assert np.array_equal(a.v1, b.v1)
    assert np.array_equal(a.v2, b.v2)
    assert np.array_equal(a.v3, b.v3)
