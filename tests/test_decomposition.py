import math
import xml.etree.ElementTree as ElementTree
from collections import Counter

import numpy as np
import pytest

from helpers import (MARKED_SIDE_PAIRS, develop_octagon_3d, gluing_scan, interior_angles,
                     polygon_is_simple, sample_chart, sample_deficits)
from octmoduli import (ChartPoint, area, build_gluing, chart, cone_angle, deficits,
                       develop_octagon, make_deficits, parallelogram_family,
                       random_octahedron, svg_net, trig_pack)
from octmoduli.decomposition import FACE_LABELS, VERTEX_ORBITS, face_vertices, prime
from octmoduli.errors import GluingInconsistent, NonPositiveChart, UnknownVertex

EQUILATERAL = make_deficits(2 * math.pi / 3, 2 * math.pi / 3, 2 * math.pi / 3)


def test_family_equilateral_unit_rhombi():
    family = parallelogram_family(ChartPoint(1, 1, 1, 1), EQUILATERAL)
    assert len(family) == 12
    for f in family:
        assert f.side_u == 1.0 and f.side_v == 1.0
        assert f.corner_angle == pytest.approx(math.pi / 3, abs=1e-15)


def test_family_follows_side_angle_table():
    d = sample_deficits(np.random.default_rng(31))
    family = parallelogram_family(ChartPoint(2, 1, 1, 1), d)
    by_angle = Counter()
    for f in family:
        by_angle[(round(f.corner_angle, 12), (f.side_u, f.side_v))] += 1
    h = [round(x / 2, 12) for x in d.as_tuple()]
    # delta1/2 group: (a,b)=(2,1) and (c,d)=(1,1); delta2/2: (a,c); delta3/2: (a,d)
    assert by_angle[(h[0], (2.0, 1.0))] == 2
    assert by_angle[(h[0], (1.0, 1.0))] == 2
    assert by_angle[(h[1], (2.0, 1.0))] == 2
    assert by_angle[(h[1], (1.0, 1.0))] == 2
    assert by_angle[(h[2], (2.0, 1.0))] == 2
    assert by_angle[(h[2], (1.0, 1.0))] == 2


def test_family_rejects_nonpositive_chart():
    with pytest.raises(NonPositiveChart):
        parallelogram_family(ChartPoint(1, 1, 0, 1), EQUILATERAL)
    with pytest.raises(NonPositiveChart):
        develop_octagon(ChartPoint(1, -1, 1, 1), EQUILATERAL)


def test_family_total_area_matches_quadratic_form():
    rng = np.random.default_rng(32)
    for _ in range(1000):
        d = sample_deficits(rng)
        p = sample_chart(rng)
        family = parallelogram_family(p, d)
        total = sum(f.side_u * f.side_v * math.sin(f.corner_angle) for f in family)
        expected = area(p, trig_pack(d))
        assert abs(total - expected) <= 1e-12 * expected


def test_build_gluing_structure():
    g = build_gluing(parallelogram_family(ChartPoint(1, 2, 3, 4), EQUILATERAL))
    assert len(g.edge_pairs) == 24
    assert len(g.faces) == 12
    assert g.euler_characteristic() == 2
    assert set(g.vertex_orbits) == set(VERTEX_ORBITS)
    # each slot appears exactly once over all pairs
    slots = [s for pair in g.edge_pairs for s in pair]
    assert len(slots) == 48 and len(set(slots)) == 48


def test_build_gluing_rejects_tampered_family():
    family = parallelogram_family(ChartPoint(1, 2, 3, 4), EQUILATERAL)
    with pytest.raises(GluingInconsistent):
        build_gluing(family[:11])
    bad = list(family)
    spec = bad[0]
    bad[0] = type(spec)(spec.label, spec.side_u + 0.5, spec.side_v,
                        spec.corner_angle, spec.corner_vertex)
    with pytest.raises(GluingInconsistent):
        build_gluing(bad)


def test_gluing_tables_match_brute_force_scan():
    # the input-independent tables build_gluing, cone_angle and
    # parallelogram_family read, against the per-call scan they replace: every
    # edge lies in exactly two faces, 24 edges, each glued pair of one chart
    # letter (so of equal length), and bit-identical corner sums
    rng = np.random.default_rng(36)
    for _ in range(1000):
        d = sample_deficits(rng)
        p = sample_chart(rng)
        family = parallelogram_family(p, d)
        g = build_gluing(family)
        groups, corner_sums = gluing_scan(family, p)
        assert len(groups) == 24
        assert all(len(group) == 2 for group in groups)
        assert all(letter_a == letter_b and len_a == len_b
                   for (_, letter_a, len_a), (_, letter_b, len_b) in groups)
        assert g.edge_pairs == tuple((slot_a, slot_b) for (slot_a, _, _), (slot_b, _, _) in groups)
        assert {v: cone_angle(g, v) for v in VERTEX_ORBITS} == corner_sums
        for f in family:
            assert f.corner_vertex == next(x for x in face_vertices(f.label) if x.startswith("v"))


def test_cone_angles_equilateral():
    g = build_gluing(parallelogram_family(ChartPoint(1, 1, 1, 1), EQUILATERAL))
    for v in ("v1", "v2", "v3", "v1'", "v2'", "v3'"):
        assert cone_angle(g, v) == pytest.approx(4 * math.pi / 3, abs=1e-12)
    for o in ("O1", "O2", "O3", "O4", "O1'", "O2'", "O3'", "O4'"):
        assert cone_angle(g, o) == pytest.approx(2 * math.pi, abs=1e-12)
    # four faces meet at v2, each contributing a pi/3 corner
    incident = [f for f in g.faces if "v2" in face_vertices(f.label)]
    assert len(incident) == 4
    for f in incident:
        assert f.corner_angle == pytest.approx(math.pi / 3, abs=1e-15)


def test_cone_angles_random_sweep():
    rng = np.random.default_rng(33)
    for _ in range(300):
        d = sample_deficits(rng)
        g = build_gluing(parallelogram_family(sample_chart(rng), d))
        expected = {"v1": d.delta1, "v2": d.delta2, "v3": d.delta3}
        for label, delta in expected.items():
            assert abs(cone_angle(g, label) - (2 * math.pi - delta)) <= 1e-9
            assert abs(cone_angle(g, prime(label)) - (2 * math.pi - delta)) <= 1e-9
        for o in ("O1", "O2", "O3", "O4"):
            assert abs(cone_angle(g, o) - 2 * math.pi) <= 1e-9


def test_cone_angle_unknown_vertex():
    g = build_gluing(parallelogram_family(ChartPoint(1, 1, 1, 1), EQUILATERAL))
    with pytest.raises(UnknownVertex):
        cone_angle(g, "v7")


def test_antipodal_involution_is_automorphism():
    d = sample_deficits(np.random.default_rng(34))
    family = parallelogram_family(sample_chart(np.random.default_rng(35)), d)
    g = build_gluing(family)
    by_label = {f.label: f for f in family}
    for f in family:
        image = by_label[prime(f.label)]
        assert image.label != f.label
        assert (image.side_u, image.side_v) == (f.side_u, f.side_v)
        assert image.corner_angle == f.corner_angle
        assert image.corner_vertex == prime(f.corner_vertex)
    for v in VERTEX_ORBITS:
        assert prime(v) != v and prime(v) in VERTEX_ORBITS
    # edge pairing is preserved under priming every slot
    pair_set = {frozenset(pair) for pair in g.edge_pairs}
    primed = {frozenset(((prime(lbl), i) for lbl, i in pair)) for pair in g.edge_pairs}
    assert primed == pair_set
    for pair in g.edge_pairs:
        assert frozenset((prime(lbl), i) for lbl, i in pair) != frozenset(pair)


def test_develop_octagon_equilateral_unit_sides():
    octa = develop_octagon(ChartPoint(1, 1, 1, 1), EQUILATERAL)
    assert octa.side_lengths() == pytest.approx((1.0,) * 8, abs=1e-14)


def test_develop_octagon_interior_angles():
    rng = np.random.default_rng(36)
    for _ in range(200):
        d = sample_deficits(rng)
        octa = develop_octagon(sample_chart(rng), d)
        d1, d2, d3 = d.as_tuple()
        expected = (math.pi - d3 / 2, (2 * math.pi - d1) / 2, math.pi - d2 / 2,
                    d2 + d1 / 2, math.pi - d2 / 2, (2 * math.pi - d1) / 2,
                    math.pi - d3 / 2, d3 + d1 / 2)
        got = octa.interior_angles()
        for g, e in zip(got, expected):
            assert abs(g - e) <= 1e-12
        assert abs(sum(got) - 6 * math.pi) <= 1e-11


def test_develop_octagon_marked_sides_parallel_equal():
    rng = np.random.default_rng(37)
    for _ in range(200):
        octa = develop_octagon(sample_chart(rng), sample_deficits(rng))
        v = octa.vertices
        for i, j in MARKED_SIDE_PAIRS:
            ui = np.subtract(v[(i + 1) % 8], v[i])
            uj = np.subtract(v[(j + 1) % 8], v[j])
            scale = max(np.linalg.norm(ui), 1.0)
            assert abs(np.linalg.norm(ui) - np.linalg.norm(uj)) <= 1e-12 * scale
            assert abs(ui[0] * uj[1] - ui[1] * uj[0]) <= 1e-12 * scale * scale


def test_develop_octagon_is_simple():
    rng = np.random.default_rng(38)
    for _ in range(300):
        octa = develop_octagon(sample_chart(rng), sample_deficits(rng))
        assert polygon_is_simple(list(octa.vertices))


def test_develop_octagon_matches_3d_development():
    # the abstract layout is congruent to the unrolled embedded octagon
    rng = np.random.default_rng(39)
    for _ in range(100):
        e = random_octahedron(rng)
        octa = develop_octagon(chart(e), deficits(e))
        reference = develop_octagon_3d(e)
        ref_sides = [float(np.linalg.norm(reference[(i + 1) % 8] - reference[i]))
                     for i in range(8)]
        scale = max(ref_sides)
        for got, want in zip(octa.side_lengths(), ref_sides):
            assert abs(got - want) <= 1e-9 * scale
        ref_angles = interior_angles(reference)
        for got, want in zip(octa.interior_angles(), ref_angles):
            assert abs(got - want) <= 1e-9


def test_embedding_round_trip_through_gluing():
    rng = np.random.default_rng(40)
    for _ in range(100):
        e = random_octahedron(rng)
        d = deficits(e)
        g = build_gluing(parallelogram_family(chart(e), d))
        for label, delta in zip(("v1", "v2", "v3"), d.as_tuple()):
            assert abs(cone_angle(g, label) - (2 * math.pi - delta)) <= 1e-8


def test_svg_net_renders_twelve_faces():
    text = svg_net(ChartPoint(1, 1, 1, 1), EQUILATERAL)
    assert text.count("<polygon") == 12
    root = ElementTree.fromstring(text)
    ns = "{http://www.w3.org/2000/svg}"
    polygons = root.findall(f".//{ns}polygon")
    assert len(polygons) == 12
    labels = {el.get("class") for el in polygons}
    assert labels == {"face P1", "face P2", "face P3", "face P4", "face P5", "face P6"}


def test_svg_net_deterministic():
    p = ChartPoint(1.25, 0.8, 1.1, 0.9)
    d = make_deficits(2.1, 2.3, 2 * math.pi - 4.4)
    assert svg_net(p, d) == svg_net(p, d)


def test_face_tables_consistent():
    for label in FACE_LABELS:
        verts = face_vertices(label)
        assert len(set(verts)) == 4
        # faces alternate O-corner / vertex-corner
        assert [v[0] for v in verts] == ["O", "v", "O", "v"]
