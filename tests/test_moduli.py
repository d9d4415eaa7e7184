import math

import numpy as np
import pytest

from helpers import (dihedral_oracle, klein_distance, sample_chart, sample_deficits,
                     sample_near_degenerate_deficits)
from octmoduli import (IDEAL_VERTICES, ChartPoint, area, canonical_form, classify_boundary,
                       dihedral_angle, distance, klein_coordinates, klein_ideal_vertices,
                       lorentz_product, make_deficits, normalize, reflect_wall,
                       symmetry_group, trig_pack, wall_normal)
from octmoduli.moduli import WALLS, ModuliPoint
from octmoduli.errors import (MixedContext, NegativeCoordinate,
                              NonPositiveLeadingCoordinate, NotTimelikeSeparated,
                              SameWall, ZeroArea)

EQUILATERAL = make_deficits(2 * math.pi / 3, 2 * math.pi / 3, 2 * math.pi / 3)
RIGHT = make_deficits(math.pi, math.pi / 2, math.pi / 2)

# wall pair -> deficit index whose half-angle is the dihedral angle
PAIR_TABLE = {("a", "b"): 1, ("c", "d"): 1, ("a", "c"): 2, ("b", "d"): 2,
              ("a", "d"): 3, ("b", "c"): 3}


def test_normalize_examples():
    t = trig_pack(EQUILATERAL)
    m = normalize(ChartPoint(1, 1, 1, 1), t)
    expected = 1.0 / math.sqrt(6 * math.sqrt(3))
    assert m.coords.as_tuple() == pytest.approx((expected,) * 4, abs=1e-15)
    assert area(m.coords, t) == pytest.approx(1.0, abs=1e-12)


def test_normalize_scale_invariant():
    rng = np.random.default_rng(41)
    for _ in range(100):
        t = trig_pack(sample_deficits(rng))
        p = sample_chart(rng)
        lam = float(np.exp(rng.uniform(-2, 2)))
        m1 = np.array(normalize(p, t).coords.as_tuple())
        m2 = np.array(normalize(ChartPoint(*(lam * np.array(p.as_tuple()))), t).coords.as_tuple())
        assert np.max(np.abs(m1 - m2)) <= 1e-12


def test_normalize_zero_area():
    with pytest.raises(ZeroArea):
        normalize(ChartPoint(1, 0, 0, 0), trig_pack(EQUILATERAL))


def test_distance_identity_and_symmetry():
    t = trig_pack(EQUILATERAL)
    p = normalize(ChartPoint(1, 2, 3, 4), t)
    q = normalize(ChartPoint(2, 1, 1, 1), t)
    assert distance(p, p) == 0.0
    assert distance(p, q) == distance(q, p)


def test_distance_identity_of_indiscernibles():
    rng = np.random.default_rng(56)
    for _ in range(200):
        t = trig_pack(sample_deficits(rng))
        p = normalize(sample_chart(rng), t)
        assert distance(p, p) <= 1e-9


def test_distance_preset_value():
    # normalized product is 5*sqrt(6)/12, so the distance is arccosh of that
    t = trig_pack(EQUILATERAL)
    p = normalize(ChartPoint(1, 1, 1, 1), t)
    q = normalize(ChartPoint(2, 1, 1, 1), t)
    expected = math.acosh(5 * math.sqrt(6) / 12)
    assert distance(p, q) == pytest.approx(expected, abs=1e-14)
    assert distance(p, q) == pytest.approx(0.5 * math.log(1.5), abs=1e-14)


def test_distance_mixed_context():
    p = normalize(ChartPoint(1, 1, 1, 1), trig_pack(EQUILATERAL))
    q = normalize(ChartPoint(1, 1, 1, 1), trig_pack(RIGHT))
    with pytest.raises(MixedContext):
        distance(p, q)


def test_distance_rejects_non_unit_inputs():
    t = trig_pack(EQUILATERAL)
    p = normalize(ChartPoint(1, 1, 1, 1), t)
    fake = ModuliPoint(ChartPoint(1e-3, 1e-3, 1e-3, 1e-3), t)
    with pytest.raises(NotTimelikeSeparated):
        distance(p, fake)


def test_distance_triangle_inequality():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        t = trig_pack(sample_deficits(rng))
        p, q, r = (normalize(sample_chart(rng), t) for _ in range(3))
        assert distance(p, q) + distance(q, r) - distance(p, r) >= -1e-9


def test_wall_normals_match_closed_forms():
    rng = np.random.default_rng(43)
    for _ in range(200):
        t = trig_pack(sample_deficits(rng))
        assert wall_normal("a", t).n == (1.0, -t.c1, -t.c2, -t.c3)
        assert wall_normal("b", t).n == (-t.c1, 1.0, -t.c3, -t.c2)
        assert wall_normal("c", t).n == (-t.c2, -t.c3, 1.0, -t.c1)
        assert wall_normal("d", t).n == (-t.c3, -t.c2, -t.c1, 1.0)
        expected_norm = -(t.s1 * t.c1 + t.s2 * t.c2 + t.s3 * t.c3)
        for w in WALLS:
            n = wall_normal(w, t).n
            assert abs(lorentz_product(n, n, t) - expected_norm) <= 1e-12
            assert expected_norm < 0  # spacelike


def test_wall_normals_annihilate_their_wall():
    rng = np.random.default_rng(44)
    for _ in range(100):
        t = trig_pack(sample_deficits(rng))
        for i, w in enumerate(WALLS):
            n = wall_normal(w, t).n
            # spanning set of the wall: the three coordinate directions in it
            for j in range(4):
                if j == i:
                    continue
                basis = [0.0] * 4
                basis[j] = 1.0
                assert abs(lorentz_product(n, basis, t)) <= 1e-12
            vec = rng.normal(size=4)
            vec[i] = 0.0
            assert abs(lorentz_product(n, vec, t)) <= 1e-12 * max(1.0, np.max(np.abs(vec)))


def test_dihedral_angle_pairing_table():
    # the closed form against the angle between the wall normals (mpmath oracle)
    rng = np.random.default_rng(45)
    for _ in range(1000):
        d = sample_deficits(rng)
        halves = {1: d.delta1 / 2, 2: d.delta2 / 2, 3: d.delta3 / 2}
        for (wi, wj), k in PAIR_TABLE.items():
            assert dihedral_angle(wi, wj, d) == halves[k]
            assert dihedral_angle(wi, wj, d) == dihedral_angle(wj, wi, d)
            assert abs(dihedral_oracle(wi, wj, d) - halves[k]) <= 1e-12


def test_dihedral_angle_near_degenerate_matches_oracle():
    # one deficit in [1e-9, 1e-3]: relative agreement, so the small angle counts
    rng = np.random.default_rng(57)
    cases = [make_deficits(1e-9, math.pi, math.pi - 1e-9)]
    cases += [sample_near_degenerate_deficits(rng) for _ in range(200)]
    for d in cases:
        for wi, wj in PAIR_TABLE:
            got = dihedral_angle(wi, wj, d)
            assert abs(dihedral_oracle(wi, wj, d) - got) <= 1e-12 * min(got, 1.0)


def test_dihedral_angles_sum_and_equilateral():
    for wi, wj in PAIR_TABLE:
        assert dihedral_angle(wi, wj, EQUILATERAL) == pytest.approx(math.pi / 3, abs=1e-14)
    rng = np.random.default_rng(46)
    for _ in range(100):
        d = sample_deficits(rng)
        total = (dihedral_angle("a", "b", d) + dihedral_angle("a", "c", d)
                 + dihedral_angle("a", "d", d))
        assert abs(total - math.pi) <= 1e-12


def test_dihedral_same_wall_rejected():
    with pytest.raises(SameWall):
        dihedral_angle("a", "a", EQUILATERAL)


def test_reflect_wall_closed_form_for_d():
    rng = np.random.default_rng(47)
    for _ in range(100):
        t = trig_pack(sample_deficits(rng))
        a, b, c, d = rng.normal(size=4)
        out = reflect_wall((a, b, c, d), "d", t)
        assert out == pytest.approx((a + 2 * d * t.c3, b + 2 * d * t.c2,
                                     c + 2 * d * t.c1, -d), abs=1e-15)


def test_reflect_wall_fixes_wall_pointwise():
    t = trig_pack(RIGHT)
    assert reflect_wall((1.0, 2.0, 3.0, 0.0), "d", t) == (1.0, 2.0, 3.0, 0.0)
    assert reflect_wall((0.0, 2.0, 3.0, 4.0), "a", t) == (0.0, 2.0, 3.0, 4.0)


def test_reflect_wall_involution_and_form_invariance():
    rng = np.random.default_rng(48)
    for _ in range(250):
        t = trig_pack(sample_deficits(rng))
        p = rng.normal(size=4)
        for w in WALLS:
            r = reflect_wall(p, w, t)
            rr = reflect_wall(r, w, t)
            assert np.max(np.abs(np.array(rr) - p)) <= 1e-12
            q0 = lorentz_product(p, p, t)
            q1 = lorentz_product(r, r, t)
            assert abs(q1 - q0) <= 1e-12 * max(1.0, abs(q0))


def test_ideal_vertices_null_and_wall_membership():
    rng = np.random.default_rng(49)
    verts = IDEAL_VERTICES
    assert len(verts) == 4
    for _ in range(50):
        t = trig_pack(sample_deficits(rng))
        for i, v in enumerate(verts):
            assert lorentz_product(v, v, t) == 0.0
            # lies in exactly the three walls whose coordinate vanishes
            containing = [w for j, w in enumerate(WALLS) if v[j] == 0.0]
            assert len(containing) == 3 and WALLS[i] not in containing
        for j, w in enumerate(WALLS):
            inside = [v for v in verts if v[j] == 0.0]
            assert len(inside) == 3


def test_classify_boundary():
    assert classify_boundary(ChartPoint(1, 1, 1, 1)) == "interior"
    assert classify_boundary(ChartPoint(1, 1, 1, 0)) == "hexagon_pillowcase"
    assert classify_boundary(ChartPoint(1, 1, 0, 0)) == "parallelogram_pillowcase"
    assert classify_boundary(ChartPoint(1, 0, 0, 0)) == "ideal_or_invalid"
    assert classify_boundary(ChartPoint(0, 0, 0, 0)) == "ideal_or_invalid"
    with pytest.raises(NegativeCoordinate):
        classify_boundary(ChartPoint(1, -1, 1, 1))


def test_symmetry_group_kinds():
    assert symmetry_group(EQUILATERAL).kind == "full_S4"
    assert len(symmetry_group(EQUILATERAL).elements()) == 24
    g = symmetry_group(RIGHT)
    assert g.kind == "dihedral_D2"
    assert set(g.generators) == {(1, 0, 2, 3), (0, 1, 3, 2)}
    assert len(g.elements()) == 4
    trivial = symmetry_group(make_deficits(1.0, 2.0, 2 * math.pi - 3.0))
    assert trivial.kind == "trivial"
    assert trivial.elements() == ((0, 1, 2, 3),)


def test_symmetry_generators_preserve_form():
    rng = np.random.default_rng(50)
    cases = [
        make_deficits(1.1, 1.1, 2 * math.pi - 2.2),          # delta1 = delta2
        make_deficits(1.3, 2 * math.pi - 2.6, 1.3),          # delta1 = delta3
        make_deficits(2 * math.pi - 2.4, 1.2, 1.2),          # delta2 = delta3
        EQUILATERAL,
    ]
    for d in cases:
        g = symmetry_group(d)
        t = trig_pack(d)
        assert g.kind in ("dihedral_D2", "full_S4")
        for perm in g.elements():
            for _ in range(50):
                p = rng.normal(size=4)
                q = rng.normal(size=4)
                pp = [p[perm[i]] for i in range(4)]
                qq = [q[perm[i]] for i in range(4)]
                lhs = lorentz_product(pp, qq, t)
                rhs = lorentz_product(p, q, t)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_symmetry_group_tolerance():
    d = make_deficits(1.0, 1.0 + 1e-12, 2 * math.pi - 2.0 - 1e-12)
    assert symmetry_group(d).kind == "dihedral_D2"
    assert symmetry_group(d, tol=1e-15).kind == "trivial"


def test_canonical_form_examples():
    s4 = symmetry_group(EQUILATERAL)
    assert canonical_form(ChartPoint(3, 1, 2, 4), s4).as_tuple() == (1.0, 2.0, 3.0, 4.0)
    d2 = symmetry_group(RIGHT)
    assert canonical_form(ChartPoint(2, 1, 4, 3), d2).as_tuple() == (1.0, 2.0, 3.0, 4.0)
    trivial = symmetry_group(make_deficits(1.0, 2.0, 2 * math.pi - 3.0))
    assert canonical_form(ChartPoint(3, 1, 2, 4), trivial).as_tuple() == (3.0, 1.0, 2.0, 4.0)


def test_canonical_form_idempotent_and_orbit_invariant():
    rng = np.random.default_rng(51)
    for d in (EQUILATERAL, RIGHT):
        g = symmetry_group(d)
        for _ in range(50):
            p = sample_chart(rng)
            canon = canonical_form(p, g)
            assert canonical_form(canon, g).as_tuple() == canon.as_tuple()
            for perm in g.elements():
                moved = ChartPoint(*(p.as_tuple()[perm[i]] for i in range(4)))
                assert canonical_form(moved, g).as_tuple() == canon.as_tuple()


def test_klein_center_and_ideal_vertices():
    t = trig_pack(EQUILATERAL)
    center = klein_coordinates(normalize(ChartPoint(1, 1, 1, 1), t))
    assert np.max(np.abs(center)) <= 1e-15
    rng = np.random.default_rng(52)
    for _ in range(100):
        t = trig_pack(sample_deficits(rng))
        for v in klein_ideal_vertices(t):
            assert abs(float(np.dot(v, v)) - 1.0) <= 1e-12


def test_klein_rejects_points_outside_positive_cone():
    t = trig_pack(EQUILATERAL)
    with pytest.raises(NonPositiveLeadingCoordinate):
        klein_coordinates(ModuliPoint(ChartPoint(-1, -1, -1, -1), t))


def test_klein_distance_oracle_agrees():
    rng = np.random.default_rng(53)
    for _ in range(1000):
        t = trig_pack(sample_deficits(rng))
        p = normalize(sample_chart(rng), t)
        q = normalize(sample_chart(rng), t)
        direct = distance(p, q)
        via_klein = klein_distance(klein_coordinates(p), klein_coordinates(q))
        assert abs(direct - via_klein) <= 1e-9


def test_klein_wall_images_are_planar():
    # wall points map onto the plane through the wall's three ideal vertices
    rng = np.random.default_rng(54)
    for _ in range(50):
        t = trig_pack(sample_deficits(rng))
        kv = klein_ideal_vertices(t)
        for i in range(4):
            others = [kv[j] for j in range(4) if j != i]
            normal = np.cross(others[1] - others[0], others[2] - others[0])
            normal /= np.linalg.norm(normal)
            offset = float(np.dot(normal, others[0]))
            for _ in range(20):
                coords = np.exp(rng.uniform(-1.5, 1.5, size=4))
                coords[i] = 0.0
                m = normalize(ChartPoint(*coords), t)
                k = klein_coordinates(m)
                assert abs(float(np.dot(normal, k)) - offset) <= 1e-9


def test_klein_interior_points_inside_ball():
    rng = np.random.default_rng(55)
    for _ in range(200):
        t = trig_pack(sample_deficits(rng))
        k = klein_coordinates(normalize(sample_chart(rng), t))
        assert float(np.dot(k, k)) < 1.0
