"""Output checks against references that do not come from the code under test.

Nothing here imports `octmoduli` or `tests/`: every reference is computed
from first principles (the area form, Clausen's function via mpmath, numpy's
symmetric eigensolver, the triangles of the mesh, the Klein-model distance
formula), so a change to the
library cannot move its own yardstick.  Outputs are never compared with the
bytes of another commit, because a faster core may change the last bits.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

import numpy as np

TWO_PI = 2.0 * math.pi

# pairs of walls and the deficit index whose half is their dihedral angle
WALL_PAIR_GROUP = {"ab": 0, "cd": 0, "ac": 1, "bd": 1, "ad": 2, "bc": 2}

# chart letter of each side of the developed octagon O1 v1 O3 v3 O1' v1' O3' v2'
OCTAGON_SIDE_LETTERS = "dcabdcba"

VERTEX_ORBITS = ("v1", "v2", "v3", "v1'", "v2'", "v3'",
                 "O1", "O2", "O3", "O4", "O1'", "O2'", "O3'", "O4'")


class CheckLog:
    """Worst value seen per named check, against that check's limit."""

    def __init__(self):
        self._worst: dict[str, float] = {}
        self._limit: dict[str, float] = {}
        self._failures: dict[str, str] = {}

    def within(self, name: str, error: float, limit: float) -> bool:
        """Record an error measure; the check fails if it exceeds `limit` or is not finite."""
        self._limit[name] = limit
        prev = self._worst.get(name, 0.0)
        self._worst[name] = error if not error <= prev else prev
        ok = error <= limit  # False for NaN
        if not ok:
            self._failures.setdefault(name, f"{error!r} > {limit!r}")
        return ok

    def require(self, name: str, ok: bool, detail: str = "") -> bool:
        self._worst.setdefault(name, 0.0)
        if not ok:
            self._failures.setdefault(name, detail or "failed")
        return ok

    @property
    def ok(self) -> bool:
        return not self._failures

    def merge(self, other: "CheckLog") -> None:
        for name, worst in other._worst.items():
            if name in other._limit:
                self.within(name, worst, other._limit[name])
            else:
                self._worst.setdefault(name, 0.0)
        for name, detail in other._failures.items():
            self._failures.setdefault(name, detail)

    def lines(self) -> list[str]:
        out = []
        for name in sorted(self._worst):
            status = "FAIL" if name in self._failures else "PASS"
            detail = (f"worst {self._worst[name]:.3e} <= {self._limit[name]:.0e}"
                      if name in self._limit else "")
            if name in self._failures:
                detail = f"first failure: {self._failures[name]}"
            out.append(f"check {name}: {status} {detail}".rstrip())
        return out

    def to_json(self) -> dict:
        return {"worst": self._worst, "limit": self._limit, "failures": self._failures}

    @classmethod
    def from_json(cls, data: dict) -> "CheckLog":
        log = cls()
        log._worst = dict(data["worst"])
        log._limit = dict(data["limit"])
        log._failures = dict(data["failures"])
        return log


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(line: str):
    """Parse one JSON line, rejecting NaN and the infinities."""
    return json.loads(line, parse_constant=_reject_constant)


def clausen_volume(deficits) -> float:
    """Ideal tetrahedron volume sum L(delta_i/2) = sum Cl2(delta_i)/2 (mpmath)."""
    import mpmath as mp  # only the CLI workloads need it; keeps the roundtrip worker lean
    with mp.workdps(20):
        return float(sum(mp.clsin(2, mp.mpf(x)) for x in deficits) / 2)


def sines(deficits) -> tuple[float, float, float]:
    return tuple(math.sin(x / 2) for x in deficits)


def area_form(chart, deficits) -> float:
    """Q(a,b,c,d) = 2[(ab+cd) S1 + (ac+bd) S2 + (ad+bc) S3]."""
    a, b, c, d = chart
    s1, s2, s3 = sines(deficits)
    return 2.0 * ((a * b + c * d) * s1 + (a * c + b * d) * s2 + (a * d + b * c) * s3)


def gram(deficits) -> np.ndarray:
    s1, s2, s3 = sines(deficits)
    return np.array([[0.0, s1, s2, s3], [s1, 0.0, s3, s2],
                     [s2, s3, 0.0, s1], [s3, s2, s1, 0.0]])


def klein_distance(u, v) -> float:
    """Klein-ball distance arccosh((1 - u.v) / sqrt((1 - |u|^2)(1 - |v|^2)))."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    num = 1.0 - float(u @ v)
    den = math.sqrt((1.0 - float(u @ u)) * (1.0 - float(v @ v)))
    return math.acosh(max(num / den, 1.0))


def mesh_references(triples) -> tuple[np.ndarray, np.ndarray]:
    """Deficits (N, 3) and surface areas (N,) of hull(+-v1, +-v2, +-v3) for an
    (N, 3, 3) stack of vertex triples, straight from the triangles: deficit i
    is 2*pi minus the four face angles at v_i, the area the sum of the eight
    sign-triangle areas."""
    vs = np.asarray(triples, dtype=float)
    signs = (1.0, -1.0)
    deficits = np.empty(vs.shape[:2])
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        total = 0.0
        for sj in signs:
            for sk in signs:
                u = sj * vs[:, j] - vs[:, i]
                w = sk * vs[:, k] - vs[:, i]
                cos = (np.einsum("ni,ni->n", u, w)
                       / (np.linalg.norm(u, axis=1) * np.linalg.norm(w, axis=1)))
                total = total + np.arccos(np.clip(cos, -1.0, 1.0))
        deficits[:, i] = TWO_PI - total
    area = 0.0
    for s1 in signs:
        for s2 in signs:
            for s3 in signs:
                p, q, r = s1 * vs[:, 0], s2 * vs[:, 1], s3 * vs[:, 2]
                area = area + 0.5 * np.linalg.norm(np.cross(q - p, r - p), axis=1)
    return deficits, area


def check_svg(log: CheckLog, name: str, text: str) -> None:
    """The net parses as XML, is an <svg> document and draws all twelve faces."""
    try:
        root = ET.fromstring(text.encode("utf-8"))
    except ET.ParseError as exc:
        log.require(name, False, f"XML parse error: {exc}")
        return
    polygons = root.findall("{http://www.w3.org/2000/svg}polygon")
    log.require(name, root.tag == "{http://www.w3.org/2000/svg}svg" and len(polygons) == 12,
                f"root {root.tag}, {len(polygons)} polygons")


# --- sweep ---

def sweep_grid(steps: int):
    """Deficit triples of `sweep --steps`, in emission order."""
    h = TWO_PI / steps
    return [(i * h, j * h, TWO_PI - (i + j) * h)
            for i in range(1, steps - 1) for j in range(1, steps - i)]


def check_sweep(log: CheckLog, lines: list[str], steps: int, volume_rows) -> None:
    """Row count, strict JSON, deficits on the grid, dihedral angles delta_k/2, and
    mpmath volumes on the rows indexed by `volume_rows`."""
    grid = sweep_grid(steps)
    if not log.require("sweep.rows", len(lines) == len(grid),
                       f"{len(lines)} lines, expected {len(grid)}"):
        return
    rows = []
    for line in lines:
        try:
            rows.append(strict_json(line))
        except ValueError as exc:
            log.require("sweep.strict_json", False, str(exc))
            return
    log.require("sweep.strict_json", True)
    worst_grid = worst_angle = 0.0
    for row, expected in zip(rows, grid):
        if row.get("status") != "ok":
            log.require("sweep.status_ok", False, repr(row)[:200])
            return
        d = row["payload"]["deficits"]
        angles = row["payload"]["dihedral"]
        worst_grid = max(worst_grid, max(abs(x - y) for x, y in zip(d, expected)))
        if set(angles) != set(WALL_PAIR_GROUP):
            log.require("sweep.dihedral_keys", False, repr(sorted(angles)))
            return
        worst_angle = max(worst_angle, max(abs(angles[k] - expected[g] / 2)
                                           for k, g in WALL_PAIR_GROUP.items()))
    log.require("sweep.status_ok", True)
    log.within("sweep.deficits_on_grid", worst_grid, 1e-12)
    log.within("sweep.dihedral_vs_half_deficit", worst_angle, 1e-12)
    for i in volume_rows:
        log.within("sweep.volume_vs_mpmath_clausen",
                   abs(rows[i]["payload"]["volume"] - clausen_volume(grid[i])), 1e-9)


# --- Monte Carlo ---

def check_mc(log: CheckLog, out: str, deficits, samples: int, seed: int) -> dict:
    """One `volume --mc` response; returns the information recorded for item 5."""
    payload = strict_json(out)["payload"]
    exact = clausen_volume(deficits)
    mc = payload["monte_carlo"]
    rel = abs(mc["value"] - exact) / exact
    log.within("mc.closed_form_vs_mpmath", abs(payload["volume"] - exact), 1e-9)
    log.within("mc.estimate_within_2pct", rel, 0.02)
    log.require("mc.samples_and_seed", mc["samples"] == samples and mc["seed"] == seed,
                f"samples {mc['samples']}, seed {mc['seed']}")
    return {"rel_error": rel, "std_error": mc["std_error"],
            "std_error_rel": mc["std_error"] / exact}


# --- one-shot presets ---

def check_oneshot(log: CheckLog, name: str, payload: dict, svg_text: str | None) -> None:
    eq = (TWO_PI / 3,) * 3
    right = (math.pi, math.pi / 2, math.pi / 2)
    if name == "gram":
        err = float(np.max(np.abs(np.array(payload["matrix"]) - gram(eq))))
        log.within("oneshot.gram_matrix", err, 1e-12)
    elif name == "spectrum":
        ref = np.linalg.eigvalsh(gram(right))
        err = float(np.max(np.abs(np.sort(payload["eigenvalues"]) - ref)))
        log.within("oneshot.spectrum_vs_eigvalsh", err, 1e-10)
        log.require("oneshot.signature", payload["signature"] == [1, 3],
                    repr(payload["signature"]))
    elif name == "dihedral":
        err = max(abs(payload["angles"][k] - right[g] / 2) for k, g in WALL_PAIR_GROUP.items())
        log.within("oneshot.dihedral_vs_half_deficit", err, 1e-12)
    elif name == "volume":
        log.within("oneshot.volume_vs_mpmath_clausen",
                   abs(payload["volume"] - clausen_volume(eq)), 1e-9)
    elif name == "embed":
        err = max(abs(x - math.sqrt(2.0 / 3.0)) for x in payload["chart"])
        log.within("oneshot.embed_chart_sqrt_2_3", err, 1e-12)
        log.within("oneshot.embed_deficits", max(abs(x - TWO_PI / 3)
                                                 for x in payload["deficits"]), 1e-12)
    elif name == "distance":
        err = abs(payload["distance"] - math.acosh(5 * math.sqrt(6) / 12))
        log.within("oneshot.distance_closed_form", err, 1e-12)
    elif name == "canon":
        log.require("oneshot.canon", payload["group_kind"] == "dihedral_D2"
                    and payload["canonical_chart"] == [1.0, 2.0, 3.0, 4.0],
                    f"{payload['group_kind']} {payload['canonical_chart']}")
    elif name in ("chart", "chart_svg"):
        cones = payload["cone_angles"]
        err = max(abs(cones[v] - (TWO_PI - TWO_PI / 3 if v.startswith("v") else TWO_PI))
                  for v in VERTEX_ORBITS)
        log.require("oneshot.chart_orbits", set(cones) == set(VERTEX_ORBITS),
                    repr(sorted(cones)))
        log.within("oneshot.chart_cone_angles", err, 1e-9)
        log.require("oneshot.chart_euler", payload["euler_characteristic"] == 2,
                    repr(payload["euler_characteristic"]))
        log.within("oneshot.chart_area", abs(payload["area"] - area_form((1, 1, 1, 1), eq)),
                   1e-12)
        if name == "chart_svg":
            check_svg(log, "oneshot.svg_parses", svg_text or "")


# --- roundtrip ---

def check_octahedron(log: CheckLog, r: dict, mesh_deficits, direct: float) -> None:
    """One roundtrip record (see roundtrip.py for the fields) against the
    mesh_references() of its vertex triple."""
    d = r["deficits"]
    chart = r["chart"]
    log.within("roundtrip.deficits_vs_mesh_angles",
               max(abs(x - y) for x, y in zip(d, mesh_deficits)), 1e-9)
    q = area_form(chart, d)
    log.within("roundtrip.mesh_area_vs_reference", abs(r["mesh_area"] - direct) / direct, 1e-12)
    log.within("roundtrip.forms_area_vs_reference", abs(r["area"] - q) / q, 1e-12)
    log.within("roundtrip.area_residual", abs(direct - q) / direct, 1e-9)
    log.within("roundtrip.alpha_plus_beta", abs(r["alpha"] + r["beta"] - d[0] / 2), 1e-12)
    log.require("roundtrip.alpha_beta_positive", r["alpha"] > 0 and r["beta"] > 0,
                f"alpha {r['alpha']!r}, beta {r['beta']!r}")

    cones = r["cone_angles"]
    if log.require("roundtrip.orbits", set(cones) == set(VERTEX_ORBITS), repr(sorted(cones))):
        err = 0.0
        for v, angle in cones.items():
            target = TWO_PI - d[int(v[1]) - 1] if v.startswith("v") else TWO_PI
            err = max(err, abs(angle - target))
        log.within("roundtrip.cone_angles", err, 1e-9)
    v_count, e_count, f_count = r["complex_counts"]
    log.require("roundtrip.euler_characteristic", v_count - e_count + f_count == 2,
                f"V-E+F = {v_count}-{e_count}+{f_count}")

    pts = r["octagon"]
    letters = dict(zip("abcd", chart))
    err = max(abs(math.dist(pts[i], pts[(i + 1) % 8]) - letters[ch]) / letters[ch]
              for i, ch in enumerate(OCTAGON_SIDE_LETTERS))
    log.within("roundtrip.octagon_sides_vs_chart", err, 1e-9)

    p_hat, q_hat = r["normalized"], r["previous_normalized"]
    log.within("roundtrip.normalize_unit_area", abs(area_form(p_hat, d) - 1.0), 1e-12)
    scale = p_hat[0] / chart[0]
    log.within("roundtrip.normalize_keeps_ray",
               max(abs(x * scale - y) for x, y in zip(chart, p_hat)), 1e-12)
    k1, k2 = r["klein"]
    log.require("roundtrip.klein_inside_ball",
                float(np.dot(k1, k1)) < 1.0 and float(np.dot(k2, k2)) < 1.0, repr(r["klein"]))
    log.within("roundtrip.distance_vs_klein", abs(r["distance"] - klein_distance(k1, k2)), 1e-9)
    if r["svg"] is not None:
        check_svg(log, "roundtrip.svg_parses", r["svg"])
