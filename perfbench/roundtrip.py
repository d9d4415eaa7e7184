"""Worker process of the `roundtrip` workload: in-process library calls.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  It makes
its vertex triples from the seed, then serves chunks of a pass: for each JSON
request line on stdin ({"traced": bool, "start": i, "stop": j}) it runs
octahedra i to j - 1 through the pipeline once, checks the results outside
the timed region and answers with one JSON line on stdout.  It exits at end
of input.

Per octahedron (one timed operation):
    validate -> deficits -> alpha_beta(face_angles) -> chart -> mesh_area vs
    forms.area -> parallelogram_family -> build_gluing -> cone_angle on all
    14 orbits -> develop_octagon -> normalize + distance to the previous
    octahedron's chart + klein_coordinates, and svg_net on every tenth.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time

import numpy as np

import checks
import tracing

# vertex triples made from the seed; the passes cycle through them
OCTAHEDRA = 1000
# a pass of 200 puts its tail percentile (10 beyond) among the 20 svg_net
# octahedra, not among the 1% of operations the host stalls for milliseconds
OCTAHEDRA_PER_PASS = 200
# octahedra per request; the harness samples the host speed between requests
CHUNK = 100
SVG_EVERY = 10
# |det(v1, v2, v3)| / (|v1| |v2| |v3|) below this is rejected as ill-conditioned
MIN_CONDITION = 0.1


def vertex_triples(seed: int, count: int) -> list[np.ndarray]:
    """Random directions with log-uniform lengths in [0.5, 2], conditioning-rejected."""
    rng = np.random.default_rng([seed % 2**64, 0x0C7A])
    out = []
    while len(out) < count:
        u = rng.normal(size=(3, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        vs = u * np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=(3, 1)))
        norms = np.linalg.norm(vs, axis=1)
        if abs(float(np.linalg.det(vs))) / float(np.prod(norms)) >= MIN_CONDITION:
            out.append(vs)
    return out


def octahedron(om, vs, previous_chart, with_svg: bool) -> dict:
    """The timed pipeline for one vertex triple; returns what the checks need."""
    e = om.validate(*vs)
    d = om.deficits(e)
    alpha, beta = om.alpha_beta(om.face_angles(e))
    p = om.chart(e)
    direct = om.mesh_area(e)
    t = om.trig_pack(d)
    formula = om.area(p, t)
    g = om.build_gluing(om.parallelogram_family(p, d))
    cones = {v: om.cone_angle(g, v) for v in g.vertex_orbits}
    octagon = om.develop_octagon(p, d)
    here = om.normalize(p, t)
    there = om.normalize(previous_chart or p, t)
    dist = om.distance(here, there)
    klein = (om.klein_coordinates(here), om.klein_coordinates(there))
    svg = om.svg_net(p, d) if with_svg else None
    return {"deficits": d.as_tuple(), "alpha": alpha, "beta": beta, "chart": p.as_tuple(),
            "mesh_area": direct, "area": formula, "cone_angles": cones,
            "complex_counts": (len(g.vertex_orbits), len(g.edge_pairs), len(g.faces)),
            "octagon": octagon.vertices, "normalized": here.coords.as_tuple(),
            "previous_normalized": there.coords.as_tuple(), "distance": dist,
            "klein": klein, "svg": svg}


def run_pass(om, triples, charts, indices) -> tuple[float, list[float], list, list[str]]:
    """Time the octahedra at `indices`; returns (wall, latencies, records, errors).

    `charts` holds each octahedron's chart from an untimed warm-up, so the
    previous octahedron's chart is known for the first one too."""
    latencies, records, errors = [], [], []
    clock = time.perf_counter
    start = clock()
    for i in indices:
        t0 = clock()
        try:
            rec = octahedron(om, triples[i], charts[i - 1], i % SVG_EVERY == SVG_EVERY - 1)
        except Exception as exc:  # an operation failure is counted, not fatal
            rec = None
            errors.append(f"octahedron {i}: {type(exc).__name__}: {exc}")
        latencies.append(clock() - t0)
        records.append(rec)
    return clock() - start, latencies, records, errors


def peak_rss_kb() -> int:
    """This process's own peak RSS (VmHWM).  Unlike ru_maxrss, it does not
    start from the peak RSS of the harness that started the worker."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    seed = int(sys.argv[1])
    om = tracing.import_pinned()
    triples = vertex_triples(seed, OCTAHEDRA)
    ref_deficits, ref_areas = checks.mesh_references(triples)
    charts = [None] * len(triples)
    for i, vs in enumerate(triples):  # warm-up, untimed
        try:
            charts[i] = om.chart(om.validate(*vs))
        except Exception:  # the timed pass reports it
            pass
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        traced, indices = request["traced"], range(request["start"], request["stop"])
        tracer = tracing.Tracer(om)
        with tracer.installed() if traced else contextlib.nullcontext():
            wall, latencies, records, errors = run_pass(om, triples, charts, indices)
        log = checks.CheckLog()
        for i, rec in zip(indices, records):
            if rec is not None:
                checks.check_octahedron(log, rec, ref_deficits[i], float(ref_areas[i]))
        reply = {"wall": wall, "latencies": latencies, "first_output": latencies[0],
                 "attempted": len(records), "failed": len(errors), "errors": errors[:5],
                 "checks": log.to_json(),
                 "maxrss_kb": peak_rss_kb()}
        if traced:
            reply["trace"] = tracer.summary()
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
