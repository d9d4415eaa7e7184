"""Shared test utilities: seeded samplers and independent geometric oracles."""

import math

import mpmath as mp
import numpy as np

from octmoduli import ChartPoint, make_deficits
from octmoduli.decomposition import VERTEX_ORBITS, face_edge_letters, face_vertices
from octmoduli.embedding import EmbeddedOctahedron, o_points

TWO_PI = 2.0 * math.pi

# index pairs of boundary sides of PlanarOctagon that develop parallel with equal length
MARKED_SIDE_PAIRS = ((0, 4), (1, 5), (2, 7), (3, 6))

# deficit index k of the S_k-weighted monomial x*u of the area form, per chart-letter pair
_MONOMIAL_GROUP = {"ab": 1, "cd": 1, "ac": 2, "bd": 2, "ad": 3, "bc": 3}


def sample_deficits(rng, margin=0.05):
    """Random valid deficit triple with every entry at least `margin` radians."""
    while True:
        d = TWO_PI * rng.dirichlet((1.0, 1.0, 1.0))
        if d.min() >= margin:
            return make_deficits(*d)


def sample_near_degenerate_deficits(rng, low=1e-9, high=1e-3):
    """Deficit triple with one entry log-uniform in [low, high], at a random
    position, and the rest of 2*pi split uniformly between the other two."""
    small = math.exp(rng.uniform(math.log(low), math.log(high)))
    rest = TWO_PI - small
    split = rest * rng.uniform(0.05, 0.95)
    d = [split, rest - split]
    d.insert(int(rng.integers(3)), small)
    return make_deficits(*d)


def dihedral_oracle(wall_i, wall_j, deficits):
    """Angle between the walls x=0 and u=0 measured from their normals,
    arccos(-B(n_i, n_j) / B(n_i, n_i)), in 50-digit arithmetic.

    The normal of wall x has entry 1 at x and -cos(delta_k/2) at each other
    coordinate u, with S_k the coefficient of x*u in the area form B.  The
    deficits are first rescaled to sum to 2*pi exactly: the theorem needs the
    exact sum, and a near-degenerate angle moves by 1e-6 relative under the
    last bit of a double sum.  Near degenerate deficits B(n, n) cancels to
    O(delta) and arccos near 1 divides the rounding of the quotient by
    theta^2; 40 digits leave 2e-13 relative at delta = 1e-9, 50 digits only
    the final rounding to a double.
    """
    letters = "abcd"

    def group(x, u):
        return _MONOMIAL_GROUP[x + u if x < u else u + x]

    with mp.workdps(50):
        deltas = [mp.mpf(x) for x in deficits.as_tuple()]
        halves = [x * mp.pi / sum(deltas) for x in deltas]
        sin = {k: mp.sin(h) for k, h in zip((1, 2, 3), halves)}
        cos = {k: mp.cos(h) for k, h in zip((1, 2, 3), halves)}

        def normal(x):
            return [mp.mpf(1) if u == x else -cos[group(x, u)] for u in letters]

        def form(p, q):
            return sum(sin[group(letters[i], letters[j])] * (p[i] * q[j] + p[j] * q[i])
                       for i in range(4) for j in range(i + 1, 4))

        ni, nj = normal(wall_i), normal(wall_j)
        return float(mp.acos(-form(ni, nj) / form(ni, ni)))


def klein_distance(u, v):
    """Independent Klein-model distance oracle between two ball points."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    num = 1.0 - float(np.dot(u, v))
    den = math.sqrt((1.0 - float(np.dot(u, u))) * (1.0 - float(np.dot(v, v))))
    return math.acosh(max(num / den, 1.0))


def sample_chart(rng, low=0.1, high=10.0):
    """Log-uniform positive chart."""
    vals = np.exp(rng.uniform(math.log(low), math.log(high), size=4))
    return ChartPoint(*vals)


def triangle_area(p, q, r):
    return 0.5 * float(np.linalg.norm(np.cross(q - p, r - p)))


def octahedron_mesh_area(v1, v2, v3):
    """Independent oracle: sum of the eight sign-triangle areas."""
    total = 0.0
    for e1 in (1, -1):
        for e2 in (1, -1):
            for e3 in (1, -1):
                total += triangle_area(e1 * v1, e2 * v2, e3 * v3)
    return total


def _place_third(p3, q3, r3, p2, q2, avoid):
    """Planar image of r3 given images p2, q2 of p3, q3, on the side away from avoid."""
    lq = np.linalg.norm(q3 - p3)
    ex = (q2 - p2) / lq
    ey = np.array([-ex[1], ex[0]])
    u = r3 - p3
    x = float(np.dot(u, q3 - p3)) / lq
    h = math.sqrt(max(float(np.dot(u, u)) - x * x, 0.0))
    cand = p2 + x * ex + h * ey
    side = np.sign(np.cross(np.append(q2 - p2, 0), np.append(cand - p2, 0))[2])
    side_avoid = np.sign(np.cross(np.append(q2 - p2, 0), np.append(avoid - p2, 0))[2])
    if side == side_avoid:
        cand = p2 + x * ex - h * ey
    return cand


def _bary_image(x, tri3, tri2):
    m = np.stack([tri3[1] - tri3[0], tri3[2] - tri3[0]], axis=1)
    st, *_ = np.linalg.lstsq(m, x - tri3[0], rcond=None)
    return tri2[0] + st[0] * (tri2[1] - tri2[0]) + st[1] * (tri2[2] - tri2[0])


def develop_octagon_3d(e: EmbeddedOctahedron):
    """Unroll the octagon of an embedded octahedron into the plane.

    Returns the eight boundary positions in the order O1, v1, O3, v3, O1',
    v1', O3', v2'.  This is the 3-space ground truth for develop_octagon.
    """
    v1, v2, v3 = e.v1, e.v2, e.v3
    o1, o3 = o_points(e)

    p_v1 = np.zeros(2)
    p_v2p = np.array([float(np.linalg.norm(-v2 - v1)), 0.0])
    u = v3 - v1
    x = float(np.dot(u, -v2 - v1)) / p_v2p[0]
    p_v3 = np.array([x, math.sqrt(float(np.dot(u, u)) - x * x)])

    p_v2 = _place_third(v1, v3, v2, p_v1, p_v3, p_v2p)
    p_v3p = _place_third(v1, -v2, -v3, p_v1, p_v2p, p_v3)
    p_v1p = _place_third(-v2, v3, -v1, p_v2p, p_v3, p_v1)
    p_v2b = _place_third(-v1, v3, v2, p_v1p, p_v3, p_v2p)
    p_v3pb = _place_third(-v1, -v2, -v3, p_v1p, p_v2p, p_v3)

    p_o3 = _bary_image(o3, (v1, v2, v3), (p_v1, p_v2, p_v3))
    p_o1 = _bary_image(o1, (v1, -v2, -v3), (p_v1, p_v2p, p_v3p))
    p_o1p = _bary_image(-o1, (-v1, v2, v3), (p_v1p, p_v2b, p_v3))
    p_o3p = _bary_image(-o3, (-v1, -v2, -v3), (p_v1p, p_v2p, p_v3pb))

    return [p_o1, p_v1, p_o3, p_v3, p_o1p, p_v1p, p_o3p, p_v2p]


def interior_angles(points):
    """Reflex-aware interior angles of a simple polygon."""
    n = len(points)
    pts = [np.asarray(p, dtype=float) for p in points]
    turns = []
    for i in range(n):
        en = pts[i] - pts[(i - 1) % n]
        ex = pts[(i + 1) % n] - pts[i]
        turns.append(math.atan2(en[0] * ex[1] - en[1] * ex[0], float(np.dot(en, ex))))
    orient = 1.0 if sum(turns) > 0 else -1.0
    return [math.pi - orient * t for t in turns]


def _segments_cross(a, b, c, d, eps):
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return (o1 * o2 < -eps) and (o3 * o4 < -eps)


def polygon_is_simple(points, eps=1e-12):
    """No two non-adjacent sides intersect (collinear vertices allowed)."""
    n = len(points)
    scale = max(abs(x) for p in points for x in p) or 1.0
    tol = eps * scale * scale
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j - i) % n in (1, n - 1):
                continue
            if _segments_cross(points[i], points[(i + 1) % n],
                               points[j], points[(j + 1) % n], tol):
                return False
    return True


def gluing_scan(family, p):
    """Brute-force gluing of a twelve-face family with chart p: every edge of
    every face, keyed by its two end labels, and every face corner, summed per
    vertex orbit in face then corner order.

    Returns (groups, corner_sums): the edge groups ordered by their sorted end
    labels, each a list of ((face, edge index), chart letter, length), and
    {orbit: total corner angle}.
    """
    lengths = dict(zip("abcd", p.as_tuple()))
    slots = {}
    corner_sums = {v: 0.0 for v in VERTEX_ORBITS}
    for f in family:
        verts = face_vertices(f.label)
        letters = face_edge_letters(f.label)
        for i in range(4):
            key = frozenset((verts[i], verts[(i + 1) % 4]))
            slots.setdefault(key, []).append(((f.label, i), letters[i], lengths[letters[i]]))
            vertex_corner = verts[i].startswith("v")
            corner_sums[verts[i]] += f.corner_angle if vertex_corner else math.pi - f.corner_angle
    groups = [group for _, group in sorted(slots.items(), key=lambda kv: sorted(kv[0]))]
    return groups, corner_sums
