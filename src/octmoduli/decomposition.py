"""Parallelogram decomposition of the octahedron surface.

Any centrally symmetric octahedron surface splits into twelve parallelograms
whose corners are the six vertices v1, v2, v3, v1', v2', v3' plus eight flat
points O1..O4, O1'..O4' (one inside each triangular face).  Side lengths are
drawn from the chart (a, b, c, d) and each parallelogram carries an angle
delta_i/2 at its two vertex corners:

    sides (a,b) and (c,d)  ->  delta1/2      (faces P6/P6' and P5/P5')
    sides (a,c) and (b,d)  ->  delta2/2      (faces P2/P2' and P4/P4')
    sides (a,d) and (b,c)  ->  delta3/2      (faces P1/P1' and P3/P3')

This module builds the abstract gluing complex, checks its cone geometry,
lays out the planar octagon development and renders SVG nets.  The
combinatorial tables below were fixed by measuring a developed octagon of a
generic embedded octahedron; they are re-certified by the cone-angle, Euler
characteristic and embedding round-trip tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import GluingInconsistent, NonPositiveChart, UnknownVertex
from .forms import ChartPoint, ConeDeficits

Vec2 = tuple[float, float]


@dataclass(frozen=True)
class ParallelogramSpec:
    """One face of the decomposition: side lengths, distinguished corner angle."""

    label: str
    side_u: float
    side_v: float
    corner_angle: float
    corner_vertex: str


@dataclass(frozen=True, eq=False)
class GluingComplex:
    """Twelve faces, in FACE_LABELS order, with paired edges and labeled corner classes."""

    faces: tuple[ParallelogramSpec, ...]
    edge_pairs: tuple[tuple[tuple[str, int], tuple[str, int]], ...]
    vertex_orbits: tuple[str, ...]

    def euler_characteristic(self) -> int:
        return len(self.vertex_orbits) - len(self.edge_pairs) + len(self.faces)


@dataclass(frozen=True, eq=False)
class PlanarOctagon:
    """Planar development of the octagon O1 v1 O3 v3 O1' v1' O3' v2'.

    `vertices` follows that boundary order; `interior` holds the two extra
    points O4 and O2' of the five-parallelogram decomposition.
    """

    vertices: tuple[Vec2, ...]
    interior: tuple[Vec2, Vec2]

    VERTEX_LABELS = ("O1", "v1", "O3", "v3", "O1'", "v1'", "O3'", "v2'")

    def side_lengths(self) -> tuple[float, ...]:
        v = self.vertices
        return tuple(math.dist(v[i], v[(i + 1) % 8]) for i in range(8))

    def interior_angles(self) -> tuple[float, ...]:
        """Interior angles in boundary order, reflex-aware."""
        v = self.vertices
        turn_total = 0.0
        turns = []
        for i in range(8):
            ex = (v[(i + 1) % 8][0] - v[i][0], v[(i + 1) % 8][1] - v[i][1])
            en = (v[i][0] - v[(i - 1) % 8][0], v[i][1] - v[(i - 1) % 8][1])
            t = math.atan2(en[0] * ex[1] - en[1] * ex[0], en[0] * ex[0] + en[1] * ex[1])
            turns.append(t)
            turn_total += t
        orient = 1.0 if turn_total > 0 else -1.0
        return tuple(math.pi - orient * t for t in turns)


# cyclic vertex lists; every face alternates O-corner, v-corner, O-corner, v-corner
_FACE_VERTICES: Mapping[str, tuple[str, str, str, str]] = {
    "P1": ("O1", "v1", "O4", "v2'"),
    "P2": ("O3", "v1", "O4", "v3"),
    "P3": ("O3'", "v1'", "O2'", "v2'"),
    "P4": ("O1'", "v1'", "O2'", "v3"),
    "P5": ("O4", "v2'", "O2'", "v3"),
    "P6": ("O1'", "v2", "O3", "v3"),
}

# chart letter of each cyclic edge (edge i joins vertex i to vertex i+1)
_FACE_EDGE_LETTERS: Mapping[str, tuple[str, str, str, str]] = {
    "P1": ("d", "a", "d", "a"),
    "P2": ("c", "a", "c", "a"),
    "P3": ("c", "b", "c", "b"),
    "P4": ("d", "b", "d", "b"),
    "P5": ("d", "c", "d", "c"),
    "P6": ("a", "b", "a", "b"),
}

# (side_u letter, side_v letter, deficit index of the vertex-corner angle)
_FACE_SIDES_GROUP: Mapping[str, tuple[str, str, int]] = {
    "P1": ("a", "d", 3),
    "P2": ("a", "c", 2),
    "P3": ("b", "c", 3),
    "P4": ("b", "d", 2),
    "P5": ("c", "d", 1),
    "P6": ("a", "b", 1),
}

FACE_LABELS = ("P1", "P2", "P3", "P4", "P5", "P6",
               "P1'", "P2'", "P3'", "P4'", "P5'", "P6'")

VERTEX_ORBITS = ("v1", "v2", "v3", "v1'", "v2'", "v3'",
                 "O1", "O2", "O3", "O4", "O1'", "O2'", "O3'", "O4'")


def prime(label: str) -> str:
    """Antipodal relabeling: X <-> X'."""
    return label[:-1] if label.endswith("'") else label + "'"


def face_vertices(label: str) -> tuple[str, str, str, str]:
    """Cyclic corner labels of a face, primed faces via the antipodal map."""
    if label.endswith("'"):
        return tuple(prime(v) for v in _FACE_VERTICES[label[:-1]])
    return _FACE_VERTICES[label]


def face_edge_letters(label: str) -> tuple[str, str, str, str]:
    return _FACE_EDGE_LETTERS[label[:-1] if label.endswith("'") else label]


def _edge_pairs() -> tuple[tuple[tuple[str, int], tuple[str, int]], ...]:
    """The 24 glued (face, edge index) slot pairs, ordered by their sorted
    end-point labels.  Both slots of a pair carry the same chart letter."""
    slots: dict[frozenset[str], list[tuple[str, int]]] = {}
    for label in FACE_LABELS:
        verts = face_vertices(label)
        for i in range(4):
            slots.setdefault(frozenset((verts[i], verts[(i + 1) % 4])), []).append((label, i))
    return tuple(tuple(group) for _, group in sorted(slots.items(), key=lambda kv: sorted(kv[0])))


# Input-independent combinatorics of the complex, fixed by the tables above.
_EDGE_PAIRS = _edge_pairs()
# per vertex orbit, its corners (face index in FACE_LABELS, is a vertex corner)
# in face then corner order
_ORBIT_CORNERS: Mapping[str, tuple[tuple[int, bool], ...]] = {
    orbit: tuple((k, i % 2 == 1) for k, label in enumerate(FACE_LABELS)
                 for i, v in enumerate(face_vertices(label)) if v == orbit)
    for orbit in VERTEX_ORBITS
}
# per face: label, side letters, deficit index and its vertex corner (the
# corners alternate O, v, O, v, so the vertex corner is corner 1)
_FACE_SPECS = tuple((label, *_FACE_SIDES_GROUP[label.rstrip("'")], face_vertices(label)[1])
                    for label in FACE_LABELS)


def _letters(p: ChartPoint) -> dict[str, float]:
    return {"a": p.a, "b": p.b, "c": p.c, "d": p.d}


def parallelogram_family(p: ChartPoint, d: ConeDeficits) -> list[ParallelogramSpec]:
    """The twelve parallelograms determined by a strictly positive chart."""
    if not all(v > 0 for v in p):
        raise NonPositiveChart(f"chart {p.as_tuple()!r} must be strictly positive")
    lengths = _letters(p)
    halves = {1: d.delta1 / 2, 2: d.delta2 / 2, 3: d.delta3 / 2}
    return [ParallelogramSpec(label, lengths[u], lengths[v], halves[g], corner)
            for label, u, v, g, corner in _FACE_SPECS]


def build_gluing(family: list[ParallelogramSpec]) -> GluingComplex:
    """Assemble the edge-paired complex from the twelve-face family.

    Raises GluingInconsistent if the family does not form the standard
    complex (this signals a bug, not a user error: parallelogram_family
    output always glues).  The edge pairing is input-independent
    (`_EDGE_PAIRS`) and glues edges of one chart letter, so glued lengths
    are equal once every face agrees on the letter values.
    """
    by_label = {f.label: f for f in family}
    if len(family) != 12 or set(by_label) != set(FACE_LABELS):
        raise GluingInconsistent("family must contain exactly the 12 standard faces")

    # recover the chart letter values and cross-check every face against them
    lengths: dict[str, float] = {}
    for f in family:
        u, v, _ = _FACE_SIDES_GROUP[f.label.rstrip("'")]
        for letter, value in ((u, f.side_u), (v, f.side_v)):
            if lengths.setdefault(letter, value) != value:
                raise GluingInconsistent(f"side {letter} disagrees across faces")

    faces = tuple(by_label[label] for label in FACE_LABELS)
    return GluingComplex(faces, _EDGE_PAIRS, VERTEX_ORBITS)


def cone_angle(g: GluingComplex, vertex_label: str) -> float:
    """Total angle of the face corners meeting at a vertex orbit.

    Equals 2*pi - delta_i at the octahedron vertices and 2*pi at the flat
    O-points.  Vertex corners carry the face's corner_angle, O-corners its
    supplement.
    """
    if vertex_label not in g.vertex_orbits:
        raise UnknownVertex(f"unknown vertex orbit {vertex_label!r}")
    total = 0.0
    for k, vertex_corner in _ORBIT_CORNERS[vertex_label]:
        angle = g.faces[k].corner_angle
        total += angle if vertex_corner else math.pi - angle
    return total


def _rot(v: Vec2, t: float) -> Vec2:
    ct, st = math.cos(t), math.sin(t)
    return (ct * v[0] - st * v[1], st * v[0] + ct * v[1])


def _add(p: Vec2, q: Vec2) -> Vec2:
    return (p[0] + q[0], p[1] + q[1])


def _sub(p: Vec2, q: Vec2) -> Vec2:
    return (p[0] - q[0], p[1] - q[1])


def _unit(v: Vec2) -> Vec2:
    n = math.hypot(*v)
    return (v[0] / n, v[1] / n)


def develop_octagon(p: ChartPoint, d: ConeDeficits) -> PlanarOctagon:
    """Lay out the five-parallelogram octagon P1, P2, P5, P4, P3 in the plane.

    The construction starts at the interior point O4 (surrounded by P1, P2,
    P5 with wedge angles pi - delta_i/2), completes each parallelogram by its
    diagonal identity, and crosses to the primed half through O2'.  Boundary
    order matches PlanarOctagon.VERTEX_LABELS.
    """
    if not all(v > 0 for v in p):
        raise NonPositiveChart(f"chart {p.as_tuple()!r} must be strictly positive")
    a, b, c, dd = p.as_tuple()
    d1, d2, d3 = d.as_tuple()

    o4 = (0.0, 0.0)
    v1 = (a, 0.0)
    ang_v3 = math.pi - d2 / 2
    v3 = (c * math.cos(ang_v3), c * math.sin(ang_v3))
    ang_v2p = ang_v3 + (math.pi - d1 / 2)
    v2p = (dd * math.cos(ang_v2p), dd * math.sin(ang_v2p))

    o3 = _add(v1, v3)
    o1 = _add(v1, v2p)
    o2p = _add(v3, v2p)

    dir3 = _unit(_sub(v3, o2p))
    dir2p = _unit(_sub(v2p, o2p))
    # continue around O2' in the rotational sense leading from v2' to v3
    sense = math.copysign(1.0, dir2p[0] * dir3[1] - dir2p[1] * dir3[0])
    dir1p = _rot(dir3, sense * (math.pi - d2 / 2))
    v1p = _add(o2p, (b * dir1p[0], b * dir1p[1]))
    o1p = _sub(_add(v1p, v3), o2p)
    o3p = _sub(_add(v1p, v2p), o2p)

    return PlanarOctagon((o1, v1, o3, v3, o1p, v1p, o3p, v2p), (o4, o2p))


# --- SVG net ---

_EDGE_COLORS = {"a": "#c0392b", "b": "#2471a3", "c": "#1e8449", "d": "#b9770e"}
_GROUP_FILLS = {1: "#fadbd8", 2: "#d6eaf8", 3: "#d5f5e3"}

# pixels per unit length, page margin in pixels, and the gap between the two
# octagons as a fraction of one octagon's width
_SVG_SCALE = 120.0
_SVG_MARGIN = 24.0
_SVG_GAP = 0.35


def _fmt(x: float) -> str:
    # shortest round-trip decimal keeps files reproducible
    return repr(round(x, 12) + 0.0)


def _octagon_faces(p: ChartPoint, d: ConeDeficits) -> list[tuple[str, list[Vec2]]]:
    """Planar corner positions of P1, P2, P5, P4, P3 plus the P6/P6' flaps."""
    octa = develop_octagon(p, d)
    o1, v1, o3, v3, o1p, v1p, o3p, v2p = octa.vertices
    o4, o2p = octa.interior
    b = p.b
    d1 = d.delta1

    def flap(shared_from: Vec2, shared_to: Vec2, inside_probe: Vec2) -> tuple[Vec2, Vec2]:
        # attach a parallelogram of sides (|shared|, b) with angle delta1/2 at
        # shared_to, on the side of the shared edge away from inside_probe
        u = _unit(_sub(shared_from, shared_to))
        w = _sub(inside_probe, shared_to)
        side_in = math.copysign(1.0, u[0] * w[1] - u[1] * w[0])
        dir_new = _rot(u, -side_in * d1 / 2)
        far = _add(shared_to, (b * dir_new[0], b * dir_new[1]))
        opposite = _sub(_add(shared_from, far), shared_to)
        return far, opposite

    # P6 = (O1', v2, O3, v3) attaches along O3-v3; corner delta1/2 at v3
    p2_centroid = ((o3[0] + v1[0] + o4[0] + v3[0]) / 4, (o3[1] + v1[1] + o4[1] + v3[1]) / 4)
    o1p_f, v2_f = flap(o3, v3, p2_centroid)
    # P6' = (O1, v2', O3', v3') attaches along O1-v2'; corner delta1/2 at v2'
    p1_centroid = ((o1[0] + v1[0] + o4[0] + v2p[0]) / 4, (o1[1] + v1[1] + o4[1] + v2p[1]) / 4)
    o3p_f, v3p_f = flap(o1, v2p, p1_centroid)

    return [
        ("P1", [o1, v1, o4, v2p]),
        ("P2", [o3, v1, o4, v3]),
        ("P3", [o3p, v1p, o2p, v2p]),
        ("P4", [o1p, v1p, o2p, v3]),
        ("P5", [o4, v2p, o2p, v3]),
        ("P6", [o1p_f, v2_f, o3, v3]),
        ("P6'", [o1, v2p, o3p_f, v3p_f]),
    ]


def svg_net(p: ChartPoint, d: ConeDeficits) -> str:
    """SVG document showing all twelve faces of the decomposition.

    Left group: the octagon development (P1..P5) with the P6/P6' faces
    attached along their shared edges.  Right group: the congruent antipodal
    octagon (P1'..P5').  Edges are stroked by chart letter (equal lengths
    share a color) and faces are filled by their delta_i/2 group.  Output is
    deterministic: same input, same bytes.
    """
    scale, margin = _SVG_SCALE, _SVG_MARGIN
    base = _octagon_faces(p, d)
    xs = [pt[0] for _, poly in base for pt in poly]
    ys = [pt[1] for _, poly in base for pt in poly]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    gap = _SVG_GAP * (x1 - x0)
    shift = (x1 - x0) + gap

    faces: list[tuple[str, list[Vec2]]] = list(base)
    for label, poly in base:
        if label in ("P6", "P6'"):
            continue
        faces.append((prime(label), [(pt[0] + shift, pt[1]) for pt in poly]))

    def to_px(pt: Vec2) -> Vec2:
        return (margin + (pt[0] - x0) * scale, margin + (y1 - pt[1]) * scale)

    width = margin * 2 + (x1 - x0 + shift) * scale
    height = margin * 2 + (y1 - y0) * scale

    group_of = {lbl: g for lbl, (_, _, g) in _FACE_SIDES_GROUP.items()}
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]
    for label, poly in faces:
        bare = label[:-1] if label.endswith("'") else label
        fill = _GROUP_FILLS[group_of[bare]]
        pts = " ".join(f"{_fmt(q[0])},{_fmt(q[1])}" for q in map(to_px, poly))
        lines.append(f'<polygon class="face {bare}" points="{pts}" fill="{fill}" stroke="none"/>')
    for label, poly in faces:
        letters = face_edge_letters(label)
        for i in range(4):
            q0, q1 = to_px(poly[i]), to_px(poly[(i + 1) % 4])
            color = _EDGE_COLORS[letters[i]]
            lines.append(f'<line x1="{_fmt(q0[0])}" y1="{_fmt(q0[1])}" '
                         f'x2="{_fmt(q1[0])}" y2="{_fmt(q1[1])}" '
                         f'stroke="{color}" stroke-width="2"/>')
    for label, poly in faces:
        cx = sum(q[0] for q in poly) / 4
        cy = sum(q[1] for q in poly) / 4
        q = to_px((cx, cy))
        lines.append(f'<text x="{_fmt(q[0])}" y="{_fmt(q[1])}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
