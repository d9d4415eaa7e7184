"""Moduli of centrally symmetric octahedra with prescribed cone-deficits.

The library realizes the correspondence between labeled centrally symmetric
octahedra of fixed cone-deficits and a real hyperbolic ideal tetrahedron:
chart extraction from 3-space embeddings (`embedding`), the abstract
twelve-parallelogram surface and its planar nets (`decomposition`), the
Lorentzian area form (`forms`), the hyperboloid/Klein geometry of the
unit-area moduli space (`moduli`) and its hyperbolic volume (`volume`).
"""

from .decomposition import (GluingComplex, ParallelogramSpec, PlanarOctagon, build_gluing,
                            cone_angle, develop_octagon, parallelogram_family, svg_net)
from .embedding import (EmbeddedOctahedron, FaceAngles, alpha_beta, chart, deficits,
                        face_angles, mesh_area, random_octahedron, validate)
from .forms import (ChartPoint, ConeDeficits, Spectrum, TrigPack, area, gram_matrix,
                    lorentz_product, make_deficits, signature, spectrum, trig_pack)
from .moduli import (IDEAL_VERTICES, ModuliPoint, SymmetryGroup, WallNormal, canonical_form,
                     classify_boundary, dihedral_angle, distance, klein_coordinates,
                     klein_ideal_vertices, normalize, reflect_wall, symmetry_group,
                     wall_normal)
from .volume import VolumeEstimate, lobachevsky, monte_carlo_volume, tetrahedron_volume

__version__ = "0.1.0"

__all__ = [
    "ChartPoint", "ConeDeficits", "EmbeddedOctahedron", "FaceAngles", "GluingComplex",
    "IDEAL_VERTICES", "ModuliPoint", "ParallelogramSpec", "PlanarOctagon", "Spectrum",
    "SymmetryGroup", "TrigPack", "VolumeEstimate", "WallNormal",
    "alpha_beta", "area", "build_gluing", "canonical_form", "chart",
    "classify_boundary", "cone_angle", "deficits", "develop_octagon",
    "dihedral_angle", "distance", "face_angles", "gram_matrix",
    "klein_coordinates", "klein_ideal_vertices", "lobachevsky", "lorentz_product",
    "make_deficits", "mesh_area", "monte_carlo_volume", "normalize",
    "parallelogram_family", "random_octahedron", "reflect_wall", "signature",
    "spectrum", "svg_net", "symmetry_group", "tetrahedron_volume", "trig_pack",
    "validate", "wall_normal",
]
