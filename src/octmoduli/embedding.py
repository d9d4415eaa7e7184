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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsViolated, DegenerateVertices
from .forms import ChartPoint, ConeDeficits, TWO_PI, make_deficits

FACE_VERTICES = {
    "T1": ("v1", "v2'", "v3'"),
    "T2": ("v1", "v2", "v3'"),
    "T3": ("v1", "v2", "v3"),
    "T4": ("v1", "v2'", "v3"),
}


@dataclass(frozen=True, eq=False)
class EmbeddedOctahedron:
    """Validated vertex triple; the octahedron is hull(+-v1, +-v2, +-v3)."""

    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray

    def points(self) -> dict[str, np.ndarray]:
        return {"v1": self.v1, "v2": self.v2, "v3": self.v3,
                "v1'": -self.v1, "v2'": -self.v2, "v3'": -self.v3}

    def scaled(self, factor: float) -> "EmbeddedOctahedron":
        return EmbeddedOctahedron(self.v1 * factor, self.v2 * factor, self.v3 * factor)


@dataclass(frozen=True, eq=False)
class FaceAngles:
    """Angles omega[(face, vertex)] of T1..T4; primed faces resolve by symmetry."""

    angles: dict[tuple[str, str], float] = field(repr=False)

    def omega(self, face: str, vertex: str) -> float:
        if face.endswith("'"):
            face = face[:-1]
            vertex = vertex[:-1] if vertex.endswith("'") else vertex + "'"
        return self.angles[(face, vertex)]


def _angle_at(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> float:
    u = q - p
    v = r - p
    cos = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))


def _triangle_area(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> float:
    return 0.5 * float(np.linalg.norm(np.cross(q - p, r - p)))


def validate(v1, v2, v3) -> EmbeddedOctahedron:
    """Check that three vectors span a genuine centrally symmetric octahedron.

    Raises DegenerateVertices for non-finite, zero or (near-)dependent
    vectors.  Independence suffices: hull(+-v1, +-v2, +-v3) is then a linear
    image of the cross-polytope, so every sign triangle is a face.
    """
    vs = [np.asarray(v, dtype=float).reshape(3) for v in (v1, v2, v3)]
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


def face_angles(e: EmbeddedOctahedron) -> FaceAngles:
    """All angles of T1..T4 at their three corners."""
    pts = e.points()
    angles: dict[tuple[str, str], float] = {}
    for face, labels in FACE_VERTICES.items():
        tri = [pts[x] for x in labels]
        for i, vertex in enumerate(labels):
            angles[(face, vertex)] = _angle_at(tri[i], tri[(i + 1) % 3], tri[(i + 2) % 3])
    return FaceAngles(angles)


def deficits(e: EmbeddedOctahedron) -> ConeDeficits:
    """Cone-deficits 2*pi minus the four face angles meeting at each vertex."""
    fa = face_angles(e)
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


def _locate(base0: np.ndarray, base1: np.ndarray, apex: np.ndarray,
            ang_at_base0: float, ang_at_base1: float) -> np.ndarray:
    """Point inside the triangle seen from base0 under ang_at_base0 and from base1
    under ang_at_base1, built in a planar frame of the face to avoid 3-D line
    intersection conditioning."""
    span = base1 - base0
    length = float(np.linalg.norm(span))
    ex = span / length
    normal = np.cross(span, apex - base0)
    normal /= np.linalg.norm(normal)
    ey = np.cross(normal, ex)  # ey points toward the apex by construction
    r = length * math.sin(ang_at_base1) / math.sin(ang_at_base0 + ang_at_base1)
    return base0 + r * (math.cos(ang_at_base0) * ex + math.sin(ang_at_base0) * ey)


def o_points(e: EmbeddedOctahedron) -> tuple[np.ndarray, np.ndarray]:
    """The distinguished interior points (O1 in T1, O3 in T3)."""
    fa = face_angles(e)
    alpha, beta = alpha_beta(fa)
    o3 = _locate(e.v3, e.v2, e.v1, alpha, beta)
    o1 = _locate(-e.v2, -e.v3, e.v1, alpha, beta)
    return o1, o3


def chart(e: EmbeddedOctahedron) -> ChartPoint:
    """Chart coordinates (a, b, c, d) of an embedded octahedron.

    a = |O1 v2'| (= |O3 v3|), b = |O1 v3'| (= |O3 v2|), c = |O3 v1|,
    d = |O1 v1|.  With this binding the mesh area equals the quadratic form
    2[(ab+cd)S1 + (ac+bd)S2 + (ad+bc)S3].
    """
    o1, o3 = o_points(e)
    a = float(np.linalg.norm(o1 + e.v2))
    b = float(np.linalg.norm(o1 + e.v3))
    c = float(np.linalg.norm(o3 - e.v1))
    d = float(np.linalg.norm(o1 - e.v1))
    return ChartPoint(a, b, c, d)


def mesh_area(e: EmbeddedOctahedron) -> float:
    """Sum of the eight triangle areas (antipodal faces contribute equally)."""
    return 2.0 * sum(_triangle_area(*(e.points()[x] for x in labels))
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
