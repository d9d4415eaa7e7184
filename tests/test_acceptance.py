"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion carries the tolerance it is checked at.
"""

import json
import math
import time

import mpmath as mp
import numpy as np

from helpers import (dihedral_oracle, klein_distance, sample_chart, sample_deficits,
                     sample_near_degenerate_deficits)
from octmoduli import (ChartPoint, alpha_beta, area, build_gluing, chart, cone_angle,
                       deficits, dihedral_angle, distance, face_angles, gram_matrix,
                       klein_coordinates, klein_ideal_vertices, lobachevsky,
                       lorentz_product, make_deficits, mesh_area, monte_carlo_volume,
                       normalize, parallelogram_family, random_octahedron,
                       reflect_wall, signature, spectrum, symmetry_group,
                       tetrahedron_volume, trig_pack, validate)
from octmoduli.cli import main as cli_main
from octmoduli.decomposition import prime
from octmoduli.moduli import WALLS

EQUILATERAL = make_deficits(2 * math.pi / 3, 2 * math.pi / 3, 2 * math.pi / 3)
RIGHT = make_deficits(math.pi, math.pi / 2, math.pi / 2)


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_regular_octahedron_round_trip():
    start = time.perf_counter()
    e = validate([1, 0, 0], [0, 1, 0], [0, 0, 1])
    d = deficits(e)
    p = chart(e)
    direct = mesh_area(e)
    formula = area(p, trig_pack(d))
    elapsed = time.perf_counter() - start

    deficit_err = max(abs(x - 2 * math.pi / 3) for x in d.as_tuple())
    coords = p.as_tuple()
    chart_spread = max(coords) - min(coords)
    residual = abs(direct - formula) / direct
    ok = (deficit_err <= 1e-12 and chart_spread <= 1e-12
          and residual <= 1e-12 and elapsed < 1.0)
    report(1, ok, f"deficit err {deficit_err:.2e}, chart spread {chart_spread:.2e}, "
                  f"area residual {residual:.2e}, {elapsed:.2f}s")


def test_criterion_2_area_identity_fuzz():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_residual = 0.0
    worst_ab = 0.0
    bounds_ok = True
    for _ in range(1000):
        e = random_octahedron(rng)
        d = deficits(e)
        fa = face_angles(e)
        alpha, beta = alpha_beta(fa)
        bounds_ok &= 0 < alpha < fa.omega("T3", "v3")
        bounds_ok &= 0 < beta < fa.omega("T3", "v2")
        worst_ab = max(worst_ab, abs(alpha + beta - d.delta1 / 2))
        residual = abs(mesh_area(e) - area(chart(e), trig_pack(d))) / mesh_area(e)
        worst_residual = max(worst_residual, residual)
    elapsed = time.perf_counter() - start
    ok = (worst_residual <= 1e-9 and bounds_ok and worst_ab <= 1e-12
          and elapsed < 10.0)
    report(2, ok, f"1000 embeddings: worst residual {worst_residual:.2e}, "
                  f"alpha+beta err {worst_ab:.2e}, bounds {bounds_ok}, {elapsed:.1f}s")


def test_criterion_3_gluing_verification():
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    worst_v = worst_o = 0.0
    euler_ok = antipodal_ok = True
    for _ in range(1000):
        d = sample_deficits(rng)
        g = build_gluing(parallelogram_family(sample_chart(rng), d))
        euler_ok &= g.euler_characteristic() == 2
        for label, delta in zip(("v1", "v2", "v3"), d.as_tuple()):
            worst_v = max(worst_v, abs(cone_angle(g, label) - (2 * math.pi - delta)),
                          abs(cone_angle(g, prime(label)) - (2 * math.pi - delta)))
        for o in ("O1", "O2", "O3", "O4", "O1'", "O2'", "O3'", "O4'"):
            worst_o = max(worst_o, abs(cone_angle(g, o) - 2 * math.pi))
        pairs = {frozenset(pair) for pair in g.edge_pairs}
        primed = {frozenset((prime(lbl), i) for lbl, i in pair) for pair in g.edge_pairs}
        antipodal_ok &= primed == pairs
        antipodal_ok &= all(
            frozenset((prime(lbl), i) for lbl, i in pair) != frozenset(pair)
            for pair in g.edge_pairs)
    elapsed = time.perf_counter() - start
    ok = (worst_v <= 1e-9 and worst_o <= 1e-9 and euler_ok and antipodal_ok
          and elapsed < 10.0)
    report(3, ok, f"1000 charts: vertex err {worst_v:.2e}, flat err {worst_o:.2e}, "
                  f"euler {euler_ok}, antipodal {antipodal_ok}, {elapsed:.1f}s")


def test_criterion_4_spectrum_signature():
    rng = np.random.default_rng(44)
    worst = 0.0
    sig_ok = True
    for _ in range(1000):
        t = trig_pack(sample_deficits(rng))
        closed = np.sort(np.array(spectrum(t).as_tuple()))
        numeric = np.linalg.eigvalsh(gram_matrix(t))
        worst = max(worst, float(np.max(np.abs(closed - numeric))))
        sig_ok &= signature(t) == (1, 3)
    ok = worst <= 1e-10 and sig_ok
    report(4, ok, f"1000 deficit triples: eigenvalue err {worst:.2e}, signature {sig_ok}")


def test_criterion_5_isometry_checks():
    rng = np.random.default_rng(55)
    worst_q = worst_inv = worst_fix = 0.0
    for _ in range(250):
        t = trig_pack(sample_deficits(rng))
        for wall in WALLS:
            p = rng.normal(size=4)
            r = reflect_wall(p, wall, t)
            worst_q = max(worst_q, abs(lorentz_product(r, r, t)
                                       - lorentz_product(p, p, t)))
            worst_inv = max(worst_inv, float(np.max(np.abs(
                np.array(reflect_wall(r, wall, t)) - p))))
            fixed = p.copy()
            fixed[WALLS.index(wall)] = 0.0
            worst_fix = max(worst_fix, float(np.max(np.abs(
                np.array(reflect_wall(fixed, wall, t)) - fixed))))
    gen_ok = True
    for d in (make_deficits(1.0, 2.0, 2 * math.pi - 3.0),
              make_deficits(1.1, 1.1, 2 * math.pi - 2.2),
              make_deficits(2 * math.pi - 2.4, 1.2, 1.2),
              EQUILATERAL):
        t = trig_pack(d)
        for perm in symmetry_group(d).elements():
            for _ in range(20):
                p = rng.normal(size=4)
                pp = [p[perm[i]] for i in range(4)]
                gen_ok &= abs(lorentz_product(pp, pp, t)
                              - lorentz_product(p, p, t)) <= 1e-12 * 10
    ok = worst_q <= 1e-12 and worst_inv <= 1e-12 and worst_fix == 0.0 and gen_ok
    report(5, ok, f"reflections: form err {worst_q:.2e}, involution err "
                  f"{worst_inv:.2e}, wall fix err {worst_fix:.1e}, generators {gen_ok}")


def test_criterion_6_dihedral_angles():
    # the closed form delta_k/2 against the angle between the wall normals,
    # measured by the 50-digit oracle; relative error on the near-degenerate set
    rng = np.random.default_rng(66)
    pair_table = {("a", "b"): 0, ("c", "d"): 0, ("a", "c"): 1, ("b", "d"): 1,
                  ("a", "d"): 2, ("b", "c"): 2}
    generic = [sample_deficits(rng) for _ in range(1000)]
    near = [make_deficits(1e-9, math.pi, math.pi - 1e-9)]
    near += [sample_near_degenerate_deficits(rng) for _ in range(200)]
    worst = worst_rel = worst_opp = worst_sum = 0.0
    for d in generic + near:
        halves = [x / 2 for x in d.as_tuple()]
        angles = {pair: dihedral_oracle(*pair, d) for pair in pair_table}
        for pair, idx in pair_table.items():
            assert dihedral_angle(*pair, d) == halves[idx]
            err = abs(angles[pair] - halves[idx])
            worst = max(worst, err)
            worst_rel = max(worst_rel, err / min(halves[idx], 1.0))
        worst_opp = max(worst_opp,
                        abs(angles[("a", "b")] - angles[("c", "d")]),
                        abs(angles[("a", "c")] - angles[("b", "d")]),
                        abs(angles[("a", "d")] - angles[("b", "c")]))
        worst_sum = max(worst_sum, abs(angles[("a", "b")] + angles[("a", "c")]
                                       + angles[("a", "d")] - math.pi))
    eq_ok = all(abs(dihedral_oracle(*pair, EQUILATERAL) - math.pi / 3) <= 1e-12
                and dihedral_angle(*pair, EQUILATERAL) == EQUILATERAL.delta1 / 2
                for pair in pair_table)
    ok = (worst <= 1e-12 and worst_rel <= 1e-12 and worst_opp <= 1e-12
          and worst_sum <= 1e-11 and eq_ok)
    report(6, ok, f"{len(generic)} + {len(near)} near-degenerate deficit triples: oracle "
                  f"err {worst:.2e} (relative {worst_rel:.2e}), opposite err "
                  f"{worst_opp:.2e}, sum err {worst_sum:.2e}, equilateral {eq_ok}")


def test_criterion_7_volume():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_odd = worst_per = worst_dup = 0.0
    for x in rng.uniform(-6, 6, size=300):
        worst_odd = max(worst_odd, abs(lobachevsky(-x) + lobachevsky(x)))
        worst_per = max(worst_per, abs(lobachevsky(x + math.pi) - lobachevsky(x)))
        worst_dup = max(worst_dup, abs(lobachevsky(2 * x) / 2
                                       - lobachevsky(x) - lobachevsky(x + math.pi / 2)))
    with mp.workdps(30):
        quad = float(-3 * mp.quad(lambda u: mp.log(2 * mp.sin(u)), [0, mp.pi / 3]))
    closed = tetrahedron_volume(EQUILATERAL)
    quad_err = abs(closed - quad)

    mc_errs = []
    for d in (EQUILATERAL, RIGHT):
        est = monte_carlo_volume(d, 10_000_000, seed=42)
        exact = tetrahedron_volume(d)
        mc_errs.append(abs(est.value - exact) / exact)
        half = monte_carlo_volume(d, 10_000_000, seed=42, truncation=5e-4)
        mc_errs.append(abs(half.value - est.value) / exact)  # truncation stability
    elapsed = time.perf_counter() - start
    ok = (worst_odd <= 1e-10 and worst_per <= 1e-10 and worst_dup <= 1e-10
          and quad_err <= 1e-9 and all(e <= 0.02 for e in mc_errs)
          and elapsed < 60.0)
    report(7, ok, f"lobachevsky {max(worst_odd, worst_per, worst_dup):.2e}, "
                  f"quadrature err {quad_err:.2e}, mc errs "
                  f"{', '.join(f'{e:.3%}' for e in mc_errs)}, {elapsed:.1f}s")


def test_criterion_8_metric_cross_check():
    rng = np.random.default_rng(88)
    worst_dist = 0.0
    for _ in range(1000):
        t = trig_pack(sample_deficits(rng))
        p = normalize(sample_chart(rng), t)
        q = normalize(sample_chart(rng), t)
        worst_dist = max(worst_dist, abs(
            distance(p, q) - klein_distance(klein_coordinates(p), klein_coordinates(q))))
    worst_tri = 0.0
    for _ in range(1000):
        t = trig_pack(sample_deficits(rng))
        p, q, r = (normalize(sample_chart(rng), t) for _ in range(3))
        worst_tri = min(worst_tri, distance(p, q) + distance(q, r) - distance(p, r))
    worst_plane = worst_sphere = 0.0
    for _ in range(50):
        t = trig_pack(sample_deficits(rng))
        kv = klein_ideal_vertices(t)
        worst_sphere = max(worst_sphere, float(np.max(np.abs(
            np.einsum("ij,ij->i", kv, kv) - 1.0))))
        for i in range(4):
            others = [kv[j] for j in range(4) if j != i]
            n = np.cross(others[1] - others[0], others[2] - others[0])
            n /= np.linalg.norm(n)
            off = float(np.dot(n, others[0]))
            for _ in range(10):
                coords = np.exp(rng.uniform(-1.5, 1.5, size=4))
                coords[i] = 0.0
                k = klein_coordinates(normalize(ChartPoint(*coords), t))
                worst_plane = max(worst_plane, abs(float(np.dot(n, k)) - off))
    ok = (worst_dist <= 1e-9 and worst_tri >= -1e-9
          and worst_plane <= 1e-9 and worst_sphere <= 1e-12)
    report(8, ok, f"klein vs hyperboloid {worst_dist:.2e}, triangle slack "
                  f"{worst_tri:.1e}, wall planarity {worst_plane:.2e}, "
                  f"ideal sphere err {worst_sphere:.2e}")


def test_criterion_9_cli_golden(capsys):
    presets = [
        ["gram", "--deficits", "2pi/3,2pi/3,2pi/3"],
        ["spectrum", "--deficits", "pi,pi/2,pi/2"],
        ["dihedral", "--deficits", "pi,pi/2,pi/2"],
        ["volume", "--deficits", "2pi/3,2pi/3,2pi/3"],
        ["embed", "--vertices", "[[1,0,0],[0,1,0],[0,0,1]]"],
        ["distance", "--deficits", "2pi/3,2pi/3,2pi/3",
         "--chart1", "1,1,1,1", "--chart2", "2,1,1,1"],
        ["canon", "--deficits", "pi,pi/2,pi/2", "--chart", "2,1,4,3"],
        ["chart", "--deficits", "2pi/3,2pi/3,2pi/3", "--chart", "1,1,1,1"],
    ]
    stable = True
    for argv in presets:
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        stable &= code1 == 0 and code2 == 0 and out1 == out2
        json.loads(out1)
    mc = ["volume", "--deficits", "2pi/3,2pi/3,2pi/3", "--mc", "130000", "--seed", "5"]
    cli_main(mc + ["--workers", "1"])
    one = capsys.readouterr().out
    cli_main(mc + ["--workers", "4"])
    four = capsys.readouterr().out
    stable &= one == four
    with capsys.disabled():
        report(9, stable, f"{len(presets)} preset commands byte-stable, "
                           f"monte carlo worker-count stable {one == four}")
