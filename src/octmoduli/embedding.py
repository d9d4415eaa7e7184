"""Concrete octahedra in 3-space: face angles, deficits and chart extraction.

A centrally symmetric octahedron is hull(+-v1, +-v2, +-v3).  The four faces
incident to v1 are labeled

    T1 = (v1, v2', v3')   T2 = (v1, v2, v3')   T3 = (v1, v2, v3)   T4 = (v1, v2', v3)

with primes denoting antipodes; the remaining faces are their antipodal
images and carry the same angles.  From the face angles two auxiliary angles
alpha and beta locate one distinguished flat point inside T3 (called O3) and
one inside T1 (called O1); the chart is read off as four segment lengths

    a = |O1 v2'|,  b = |O1 v3'|,  c = |O3 v1|,  d = |O1 v1|.

This module is the ground-truth oracle for the abstract pipeline: the sum of
the eight triangle areas of the mesh equals the chart's quadratic area form.

The angle table of an octahedron is computed at most once and cached on it:
`face_angles`, `deficits`, `o_points` and `chart` all read the same table.
That is safe because an `EmbeddedOctahedron` from `validate` holds private,
read-only copies of its vertices, so the table can never go stale.  The 3-D
steps run on Python floats: numpy's per-call cost dominates on 3-vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import BoundsViolated, DegenerateVertices
from .forms import ChartPoint, ConeDeficits, TWO_PI, make_deficits

FACE_VERTICES = {
    "T1": ("v1", "v2'", "v3'"),
    "T2": ("v1", "v2", "v3'"),
    "T3": ("v1", "v2", "v3"),
    "T4": ("v1", "v2'", "v3"),
}


Vec3 = tuple[float, float, float]


@dataclass(frozen=True, eq=False)
class EmbeddedOctahedron:
    """Validated vertex triple; the octahedron is hull(+-v1, +-v2, +-v3).

    Build it with `validate`, which makes v1..v3 read-only copies; the face
    angles are derived from them once and cached.
    """

    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray

    def points(self) -> dict[str, np.ndarray]:
        return {"v1": self.v1, "v2": self.v2, "v3": self.v3,
                "v1'": -self.v1, "v2'": -self.v2, "v3'": -self.v3}

    def scaled(self, factor: float) -> "EmbeddedOctahedron":
        return validate(self.v1 * factor, self.v2 * factor, self.v3 * factor)

    @cached_property
    def _angles(self) -> "FaceAngles":
        return _face_angle_table(self)


@dataclass(frozen=True, eq=False)
class FaceAngles:
    """Angles omega[(face, vertex)] of T1..T4; primed faces resolve by symmetry."""

    angles: Mapping[tuple[str, str], float] = field(repr=False)

    def omega(self, face: str, vertex: str) -> float:
        if face.endswith("'"):
            face = face[:-1]
            vertex = vertex[:-1] if vertex.endswith("'") else vertex + "'"
        return self.angles[(face, vertex)]


def _sub(p: Vec3, q: Vec3) -> Vec3:
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def _dot(u: Vec3, v: Vec3) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u: Vec3, v: Vec3) -> Vec3:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _norm(u: Vec3) -> float:
    return math.sqrt(_dot(u, u))


def _scalar_points(e: EmbeddedOctahedron) -> dict[str, Vec3]:
    """`e.points()` as float tuples."""
    v1, v2, v3 = (tuple(v.tolist()) for v in (e.v1, e.v2, e.v3))
    return {"v1": v1, "v2": v2, "v3": v3,
            "v1'": (-v1[0], -v1[1], -v1[2]), "v2'": (-v2[0], -v2[1], -v2[2]),
            "v3'": (-v3[0], -v3[1], -v3[2])}


def _angle_at(p: Vec3, q: Vec3, r: Vec3) -> float:
    u = _sub(q, p)
    v = _sub(r, p)
    cos = _dot(u, v) / (_norm(u) * _norm(v))
    return math.acos(min(max(cos, -1.0), 1.0))


def _triangle_area(p: Vec3, q: Vec3, r: Vec3) -> float:
    return 0.5 * _norm(_cross(_sub(q, p), _sub(r, p)))


def validate(v1, v2, v3) -> EmbeddedOctahedron:
    """Check that three vectors span a genuine centrally symmetric octahedron.

    Raises DegenerateVertices for non-finite, zero or (near-)dependent
    vectors.  Independence suffices: hull(+-v1, +-v2, +-v3) is then a linear
    image of the cross-polytope, so every sign triangle is a face.
    """
    vs = [np.array(v, dtype=float).reshape(3) for v in (v1, v2, v3)]
    scale = max(float(np.linalg.norm(v)) for v in vs)
    if scale == 0.0 or not all(np.isfinite(v).all() for v in vs):
        raise DegenerateVertices("vertices must be finite nonzero vectors")
    det = float(np.linalg.det(np.stack(vs)))
    if abs(det) <= 1e-12 * scale**3:
        raise DegenerateVertices(f"vertices nearly dependent (det {det!r})")
    out = EmbeddedOctahedron(*vs)
    for v in (out.v1, out.v2, out.v3):
        v.flags.writeable = False
    return out


def _face_angle_table(e: EmbeddedOctahedron) -> FaceAngles:
    pts = _scalar_points(e)
    angles: dict[tuple[str, str], float] = {}
    for face, labels in FACE_VERTICES.items():
        tri = [pts[x] for x in labels]
        for i, vertex in enumerate(labels):
            angles[(face, vertex)] = _angle_at(tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3])
    # read-only: every caller of face_angles(e) shares this table
    return FaceAngles(MappingProxyType(angles))


def face_angles(e: EmbeddedOctahedron) -> FaceAngles:
    """All angles of T1..T4 at their three corners (computed once per octahedron)."""
    return e._angles


def deficits(e: EmbeddedOctahedron) -> ConeDeficits:
    """Cone-deficits 2*pi minus the four face angles meeting at each vertex."""
    fa = e._angles
    d1 = TWO_PI - sum(fa.omega(f, "v1") for f in ("T1", "T2", "T3", "T4"))
    d2 = TWO_PI - (fa.omega("T2", "v2") + fa.omega("T3", "v2")
                   + fa.omega("T1", "v2'") + fa.omega("T4", "v2'"))
    d3 = TWO_PI - (fa.omega("T3", "v3") + fa.omega("T4", "v3")
                   + fa.omega("T1", "v3'") + fa.omega("T2", "v3'"))
    return make_deficits(d1, d2, d3)


def alpha_beta(fa: FaceAngles) -> tuple[float, float]:
    """The two construction angles locating the O-points.

    alpha = (w12' + w42' + w43 + w33 - pi)/2 and
    beta  = (w32 + w22 + w23' + w13' - pi)/2; they satisfy 0 < alpha < w33,
    0 < beta < w32 and alpha + beta = delta1/2.  A violation means the input
    does not come from a valid embedding (or the angle table is mislabeled).
    """
    alpha = (fa.omega("T1", "v2'") + fa.omega("T4", "v2'")
             + fa.omega("T4", "v3") + fa.omega("T3", "v3") - math.pi) / 2
    beta = (fa.omega("T3", "v2") + fa.omega("T2", "v2")
            + fa.omega("T2", "v3'") + fa.omega("T1", "v3'") - math.pi) / 2
    if not (0.0 < alpha < fa.omega("T3", "v3")):
        raise BoundsViolated(f"alpha {alpha!r} outside (0, omega33)")
    if not (0.0 < beta < fa.omega("T3", "v2")):
        raise BoundsViolated(f"beta {beta!r} outside (0, omega32)")
    return alpha, beta


def _locate(base0: Vec3, base1: Vec3, apex: Vec3,
            ang_at_base0: float, ang_at_base1: float) -> Vec3:
    """Point inside the triangle seen from base0 under ang_at_base0 and from base1
    under ang_at_base1, built in a planar frame of the face to avoid 3-D line
    intersection conditioning."""
    span = _sub(base1, base0)
    length = _norm(span)
    ex = (span[0] / length, span[1] / length, span[2] / length)
    normal = _cross(span, _sub(apex, base0))
    n = _norm(normal)
    normal = (normal[0] / n, normal[1] / n, normal[2] / n)
    ey = _cross(normal, ex)  # ey points toward the apex by construction
    r = length * math.sin(ang_at_base1) / math.sin(ang_at_base0 + ang_at_base1)
    cx, cy = math.cos(ang_at_base0), math.sin(ang_at_base0)
    return tuple(b + r * (cx * x + cy * y) for b, x, y in zip(base0, ex, ey))


def _o_points(e: EmbeddedOctahedron, pts: dict[str, Vec3]) -> tuple[Vec3, Vec3]:
    alpha, beta = alpha_beta(e._angles)
    o3 = _locate(pts["v3"], pts["v2"], pts["v1"], alpha, beta)
    o1 = _locate(pts["v2'"], pts["v3'"], pts["v1"], alpha, beta)
    return o1, o3


def o_points(e: EmbeddedOctahedron) -> tuple[np.ndarray, np.ndarray]:
    """The distinguished interior points (O1 in T1, O3 in T3)."""
    o1, o3 = _o_points(e, _scalar_points(e))
    return np.array(o1), np.array(o3)


def chart(e: EmbeddedOctahedron) -> ChartPoint:
    """Chart coordinates (a, b, c, d) of an embedded octahedron.

    a = |O1 v2'| (= |O3 v3|), b = |O1 v3'| (= |O3 v2|), c = |O3 v1|,
    d = |O1 v1|.  With this binding the mesh area equals the quadratic form
    2[(ab+cd)S1 + (ac+bd)S2 + (ad+bc)S3].
    """
    pts = _scalar_points(e)
    o1, o3 = _o_points(e, pts)
    return ChartPoint(_norm(_sub(o1, pts["v2'"])), _norm(_sub(o1, pts["v3'"])),
                      _norm(_sub(o3, pts["v1"])), _norm(_sub(o1, pts["v1"])))


def mesh_area(e: EmbeddedOctahedron) -> float:
    """Sum of the eight triangle areas (antipodal faces contribute equally)."""
    pts = _scalar_points(e)
    return 2.0 * sum(_triangle_area(*(pts[x] for x in labels))
                     for labels in FACE_VERTICES.values())


def random_octahedron(rng: np.random.Generator) -> EmbeddedOctahedron:
    """Seeded generic octahedron: random orthogonal frame, log-uniform axis
    scales in [0.5, 2], random unit directions, rejection on conditioning."""
    while True:
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q *= np.sign(np.diag(r))
        sigma = np.exp(rng.uniform(math.log(0.5), math.log(2.0), size=3))
        u = rng.normal(size=(3, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        vs = [q @ (sigma * ui) for ui in u]
        norms = [float(np.linalg.norm(v)) for v in vs]
        det = float(np.linalg.det(np.stack(vs)))
        if abs(det) / (norms[0] * norms[1] * norms[2]) >= 0.1:
            return validate(*vs)
