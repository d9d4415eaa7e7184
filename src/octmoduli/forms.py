"""Cone deficits, half-angle trigonometry and the Lorentzian area form.

The surface area of a centrally symmetric octahedron in chart coordinates
(a, b, c, d) is the quadratic form

    Q(a,b,c,d) = 2[(ab + cd) S1 + (ac + bd) S2 + (ad + bc) S3],

with S_i = sin(delta_i / 2).  Q has signature (1, 3), so its unit level set
is a copy of hyperbolic 3-space.  This module holds the deficit data, the
chart coordinates, the Gram matrix of Q, its closed-form spectrum and the
polarized bilinear product; everything downstream (gluing, moduli geometry,
volume) is built on top of these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DegenerateForm, NonPositiveDeficit, SumNotTwoPi

TWO_PI = 2.0 * math.pi

# |delta1 + delta2 + delta3 - 2*pi| allowed on raw input, before renormalizing
SUM_TOLERANCE = 1e-9

# an eigenvalue below this magnitude means the form is numerically degenerate
DEGENERACY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ConeDeficits:
    """Prescribed cone-deficits (delta1, delta2, delta3), radians, summing to 2*pi."""

    delta1: float
    delta2: float
    delta3: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.delta1, self.delta2, self.delta3)

    def cone_angles(self) -> tuple[float, float, float]:
        """The cone angles theta_i = 2*pi - delta_i."""
        return (TWO_PI - self.delta1, TWO_PI - self.delta2, TWO_PI - self.delta3)


@dataclass(frozen=True)
class ChartPoint:
    """Chart coordinates (a, b, c, d): the four segment lengths of the decomposition."""

    a: float
    b: float
    c: float
    d: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def __iter__(self) -> Iterator[float]:
        return iter(self.as_tuple())


@dataclass(frozen=True)
class TrigPack:
    """Half-deficit sines and cosines: s_i = sin(delta_i/2), c_i = cos(delta_i/2)."""

    s1: float
    s2: float
    s3: float
    c1: float
    c2: float
    c3: float

    @property
    def s(self) -> tuple[float, float, float]:
        return (self.s1, self.s2, self.s3)

    @property
    def c(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)


@dataclass(frozen=True)
class Spectrum:
    """Closed-form eigenvalues of the Gram matrix, one positive and three negative."""

    x1: float
    x2: float
    x3: float
    x4: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.x2, self.x3, self.x4)


def make_deficits(d1: float, d2: float, d3: float) -> ConeDeficits:
    """Validate a raw deficit triple and renormalize its sum to exactly 2*pi.

    Raises NonPositiveDeficit if any entry lies outside (0, 2*pi), and
    SumNotTwoPi if the sum misses 2*pi by more than 1e-9.  Accepted triples
    are rescaled by a common factor so downstream identities hold to machine
    precision.
    """
    values = (float(d1), float(d2), float(d3))
    for v in values:
        if not (0.0 < v < TWO_PI) or math.isnan(v):
            raise NonPositiveDeficit(f"deficit {v!r} outside (0, 2*pi)")
    total = values[0] + values[1] + values[2]
    if abs(total - TWO_PI) > SUM_TOLERANCE:
        raise SumNotTwoPi(f"deficits sum to {total!r}, expected 2*pi")
    scale = TWO_PI / total
    return ConeDeficits(values[0] * scale, values[1] * scale, values[2] * scale)


def trig_pack(deficits: ConeDeficits) -> TrigPack:
    """Half-deficit sines and cosines for a validated deficit triple."""
    h1, h2, h3 = deficits.delta1 / 2, deficits.delta2 / 2, deficits.delta3 / 2
    return TrigPack(math.sin(h1), math.sin(h2), math.sin(h3),
                    math.cos(h1), math.cos(h2), math.cos(h3))


def gram_matrix(t: TrigPack) -> np.ndarray:
    """Read-only Gram matrix of the area form: zero diagonal, rows patterned by
    S1, S2, S3."""
    m = np.array([
        [0.0, t.s1, t.s2, t.s3],
        [t.s1, 0.0, t.s3, t.s2],
        [t.s2, t.s3, 0.0, t.s1],
        [t.s3, t.s2, t.s1, 0.0],
    ])
    m.flags.writeable = False
    return m


def spectrum(t: TrigPack) -> Spectrum:
    """Eigenvalues of the Gram matrix from the factored characteristic polynomial.

    x1 = S1+S2+S3 is positive; the other three roots are negative for every
    valid deficit triple.
    """
    s1, s2, s3 = t.s
    return Spectrum(s1 + s2 + s3, s3 - s2 - s1, s2 - s1 - s3, s1 - s2 - s3)


def signature(t: TrigPack) -> tuple[int, int]:
    """Signature (positive count, negative count) of the area form; always (1, 3).

    Raises DegenerateForm when an eigenvalue is numerically zero, which only
    happens for limiting deficit triples.
    """
    roots = spectrum(t).as_tuple()
    if any(abs(x) < DEGENERACY_TOLERANCE for x in roots):
        raise DegenerateForm(f"eigenvalue below {DEGENERACY_TOLERANCE} in {roots!r}")
    pos = sum(1 for x in roots if x > 0)
    return (pos, 4 - pos)


def lorentz_product(p: Sequence[float], q: Sequence[float], t: TrigPack) -> float:
    """Polarized area form: the signature-(1,3) inner product of two 4-tuples.

    B(p, q) = (ab'+a'b+cd'+c'd) S1 + (ac'+a'c+bd'+b'd) S2 + (ad'+a'd+bc'+b'c) S3.
    Symmetric and bilinear; B(p, p) is the surface area of the chart p.
    """
    a, b, c, d = p
    a2, b2, c2, d2 = q
    # grouping keeps every addition operand invariant under swapping p and q,
    # so the product (and the distances built on it) is bit-exactly symmetric
    return (((a * b2 + a2 * b) + (c * d2 + c2 * d)) * t.s1
            + ((a * c2 + a2 * c) + (b * d2 + b2 * d)) * t.s2
            + ((a * d2 + a2 * d) + (b * c2 + b2 * c)) * t.s3)


def area(p: Sequence[float], t: TrigPack) -> float:
    """Surface area of the octahedron with chart p: 2[(ab+cd)S1+(ac+bd)S2+(ad+bc)S3].

    Equals lorentz_product(p, p, t) by polarization.  Accepts boundary charts
    (zero coordinates); strictly positive whenever at most two coordinates
    vanish.
    """
    return lorentz_product(p, p, t)
