"""Hyperbolic geometry of the unit-area moduli space.

For fixed deficits, the charts of unit surface area form one sheet of the
hyperboloid B(p, p) = 1 inside the positive orthant, a copy of hyperbolic
3-space bounded by the four walls a=0 .. d=0.  The walls are geodesic
hyperplanes meeting three at a time in the four ideal coordinate directions;
the result is an ideal tetrahedron whose dihedral angle along the wall pair
{x=0, u=0} is delta_k/2, where S_k is the coefficient of the x*u monomial in
the area form.  `dihedral_angle` returns that closed form; the test suite
checks it against `tests/helpers.py::dihedral_oracle`, which measures the
angle between the wall normals in 50-digit arithmetic.  This module provides
normalization, hyperboloid distance, wall normals and reflections, dihedral
angles, boundary classification, the unlabeled-quotient symmetry groups and
the Klein ball model used as an independent verification chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (MixedContext, NegativeCoordinate, NonPositiveLeadingCoordinate,
                     NotTimelikeSeparated, SameWall, ZeroArea)
from .forms import ChartPoint, ConeDeficits, TrigPack, area, lorentz_product, spectrum

WALLS = ("a", "b", "c", "d")
_WALL_INDEX = {"a": 0, "b": 1, "c": 2, "d": 3}

# deficit index k with S_k multiplying the x*u monomial of the area form
_PAIR_GROUP = {
    frozenset(("a", "b")): 1, frozenset(("c", "d")): 1,
    frozenset(("a", "c")): 2, frozenset(("b", "d")): 2,
    frozenset(("a", "d")): 3, frozenset(("b", "c")): 3,
}

# the four null coordinate directions where triples of walls meet
IDEAL_VERTICES = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                  (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))

# Euclidean-orthogonal eigenbasis of the Gram matrix, eigenvalues x1..x4
_EIGENBASIS = np.array([
    [1.0, 1.0, 1.0, 1.0],
    [1.0, -1.0, -1.0, 1.0],
    [1.0, -1.0, 1.0, -1.0],
    [1.0, 1.0, -1.0, -1.0],
])

# products below 1 - slack signal invalid inputs
_DISTANCE_SLACK = 1e-9
# products within this band of 1 clamp to 1: unit-area rounding puts B(p, p)
# a few 1e-15 off 1, and acosh would blow that up to ~1e-8
_DISTANCE_CLAMP = 1e-13


@dataclass(frozen=True)
class ModuliPoint:
    """Unit-area chart together with its deficit context."""

    coords: ChartPoint
    trig: TrigPack


@dataclass(frozen=True)
class WallNormal:
    """Spacelike normal vector of one bounding hyperplane."""

    wall: str
    n: tuple[float, float, float, float]


@dataclass(frozen=True)
class SymmetryGroup:
    """Coordinate permutations identifying isometric labeled octahedra."""

    kind: str  # trivial | dihedral_D2 | full_S4
    generators: tuple[tuple[int, int, int, int], ...]

    def elements(self) -> tuple[tuple[int, int, int, int], ...]:
        """Close the generators under composition (identity included)."""
        identity = (0, 1, 2, 3)
        seen = {identity}
        frontier = [identity]
        while frontier:
            g = frontier.pop()
            for h in self.generators:
                comp = tuple(g[h[i]] for i in range(4))
                if comp not in seen:
                    seen.add(comp)
                    frontier.append(comp)
        return tuple(sorted(seen))


def normalize(p: ChartPoint, t: TrigPack) -> ModuliPoint:
    """Scale a chart to unit surface area."""
    q = area(p, t)
    if not q > 0.0:
        raise ZeroArea(f"chart {p.as_tuple()!r} has non-positive area {q!r}")
    s = 1.0 / math.sqrt(q)
    return ModuliPoint(ChartPoint(p.a * s, p.b * s, p.c * s, p.d * s), t)


def distance(p: ModuliPoint, q: ModuliPoint) -> float:
    """Hyperboloid-model distance arccosh(B(p, q)) between unit-area points."""
    if p.trig != q.trig:
        raise MixedContext("points live in moduli spaces of different deficits")
    prod = lorentz_product(p.coords, q.coords, p.trig)
    if prod < 1.0 - _DISTANCE_SLACK:
        raise NotTimelikeSeparated(f"inner product {prod!r} below 1; inputs invalid")
    if prod <= 1.0 + _DISTANCE_CLAMP:
        return 0.0
    return math.acosh(prod)


def wall_normal(wall: str, t: TrigPack) -> WallNormal:
    """Normal vector of the wall x=0: entry 1 at x, entry -C_k against each
    other coordinate u, with k the deficit index of the x*u monomial."""
    if wall not in WALLS:
        raise ValueError(f"unknown wall {wall!r}")
    cos = {1: t.c1, 2: t.c2, 3: t.c3}
    n = [0.0] * 4
    n[_WALL_INDEX[wall]] = 1.0
    for u in WALLS:
        if u != wall:
            n[_WALL_INDEX[u]] = -cos[_PAIR_GROUP[frozenset((wall, u))]]
    return WallNormal(wall, tuple(n))


def dihedral_angle(wall_i: str, wall_j: str, d: ConeDeficits) -> float:
    """Angle between two bounding hyperplanes: delta_k/2, with S_k the
    coefficient of the x*u monomial of the wall pair {x=0, u=0}.

    This is the closed form the theorem proves for the angle between the
    wall normals, arccos(-B(n_i, n_j) / B(n_i, n_i)); it is exact where a
    floating-point evaluation of that quotient loses the small angles of
    near-degenerate deficits.
    """
    if wall_i == wall_j:
        raise SameWall(f"walls must be distinct, got {wall_i!r} twice")
    k = _PAIR_GROUP.get(frozenset((wall_i, wall_j)))
    if k is None:
        raise ValueError(f"unknown wall in {wall_i!r}, {wall_j!r}")
    return d.as_tuple()[k - 1] / 2


def reflect_wall(p, wall: str, t: TrigPack) -> tuple[float, float, float, float]:
    """Reflection of a 4-tuple in the wall x=0.

    x maps to -x and each other coordinate u gains 2*x*C_k with k the deficit
    index of the x*u monomial (for d=0 this is (a,b,c,d) -> (a+2dC3, b+2dC2,
    c+2dC1, -d)).  Preserves the area form, fixes the wall pointwise, and is
    an involution.
    """
    if wall not in WALLS:
        raise ValueError(f"unknown wall {wall!r}")
    vals = list(float(x) for x in p)
    cos = {1: t.c1, 2: t.c2, 3: t.c3}
    i = _WALL_INDEX[wall]
    x = vals[i]
    out = list(vals)
    out[i] = -x
    for u in WALLS:
        j = _WALL_INDEX[u]
        if j != i:
            out[j] = vals[j] + 2.0 * x * cos[_PAIR_GROUP[frozenset((wall, u))]]
    return tuple(out)


def classify_boundary(p: ChartPoint) -> str:
    """Position of a nonnegative chart in the closed moduli tetrahedron.

    Zero coordinates count the degeneration: none for interior octahedra, one
    for hexagon pillowcases, two for parallelogram pillowcases, three or more
    for ideal points (no surface remains).
    """
    coords = p.as_tuple()
    if any(x < 0 for x in coords):
        raise NegativeCoordinate(f"chart {coords!r} has a negative coordinate")
    zeros = sum(1 for x in coords if x == 0.0)
    if zeros == 0:
        return "interior"
    if zeros == 1:
        return "hexagon_pillowcase"
    if zeros == 2:
        return "parallelogram_pillowcase"
    return "ideal_or_invalid"


# form-preserving swap pairs when exactly one deficit pair coincides
_D2_GENERATORS = {
    (1, 2): ((0, 2, 1, 3), (3, 1, 2, 0)),  # delta1=delta2: swap(b,c), swap(a,d)
    (1, 3): ((0, 3, 2, 1), (2, 1, 0, 3)),  # delta1=delta3: swap(b,d), swap(a,c)
    (2, 3): ((1, 0, 2, 3), (0, 1, 3, 2)),  # delta2=delta3: swap(a,b), swap(c,d)
}


def symmetry_group(d: ConeDeficits, tol: float = 1e-9) -> SymmetryGroup:
    """Coordinate symmetries of the moduli space for the deficit pattern.

    All deficits distinct: trivial.  Exactly one equal pair: the dihedral
    group D2 generated by the two coordinate swaps preserving the area form.
    All equal: the full permutation group on (a, b, c, d).
    """
    d1, d2, d3 = d.as_tuple()
    eq = [(1, 2)] if abs(d1 - d2) <= tol else []
    if abs(d1 - d3) <= tol:
        eq.append((1, 3))
    if abs(d2 - d3) <= tol:
        eq.append((2, 3))
    if len(eq) >= 2:
        return SymmetryGroup("full_S4", ((1, 0, 2, 3), (1, 2, 3, 0)))
    if len(eq) == 1:
        return SymmetryGroup("dihedral_D2", _D2_GENERATORS[eq[0]])
    return SymmetryGroup("trivial", ())


def canonical_form(p: ChartPoint, g: SymmetryGroup) -> ChartPoint:
    """Lexicographically smallest chart in the orbit of p under g."""
    coords = p.as_tuple()
    best = min(tuple(coords[perm[i]] for i in range(4)) for perm in g.elements())
    return ChartPoint(*best)


def _klein_of_raw(vec, t: TrigPack) -> np.ndarray:
    """Projective Klein image of a raw (not necessarily unit-area) 4-vector."""
    roots = spectrum(t).as_tuple()
    y = np.array([math.sqrt(abs(x)) * float(np.dot(u, vec)) / 2.0
                  for x, u in zip(roots, _EIGENBASIS)])
    if not y[0] > 0.0:
        raise NonPositiveLeadingCoordinate(f"point {tuple(vec)!r} outside the positive cone")
    return y[1:] / y[0]


def klein_coordinates(p: ModuliPoint) -> np.ndarray:
    """Klein ball coordinates of a unit-area point.

    Decomposes p in the fixed sign-pattern eigenbasis of the Gram matrix and
    returns (y2, y3, y4)/y1.  Interior points land inside the unit ball,
    ideal vertices on the unit sphere, walls on flat pieces.
    """
    return _klein_of_raw(np.asarray(p.coords.as_tuple()), p.trig)


def klein_ideal_vertices(t: TrigPack) -> np.ndarray:
    """Klein images of the four ideal vertices; each is a unit vector."""
    return np.stack([_klein_of_raw(np.asarray(v), t) for v in IDEAL_VERTICES])
