"""Compact hyperbolic tetrahedra from their six edge lengths.

The package decides existence, computes dihedral angles through the
edge-matrix cofactor cosine rule, and computes volume by direct quadrature
of the edge-length derivative, with three independent verification routes:
the one-angle logarithmic volume integral, a hyperboloid-model coordinate
embedding, and Monte Carlo integration in the Klein ball.
"""

from .angles import DihedralAngles, dihedral_angles, gram_from_angles
from .core import (
    EDGE_KEYS,
    CofactorSet,
    EdgeLengths,
    EdgeMatrix,
    JacobiResiduals,
    cofactors,
    edge_matrix_from_lengths,
    expansion_residual,
    jacobi_residuals,
    opposite_pair,
)
from .errors import (
    DegenerateError,
    DomainError,
    ExistenceError,
    HytetError,
    InconsistentAnglesError,
    NotATetrahedronError,
    NumericalError,
)
from .existence import ExistenceReport, L34Bounds, exists, l34_bounds
from .oracle import (
    MonteCarloConfig,
    VertexEmbedding,
    dihedral_angles_geometric,
    embed_vertices,
    euclidean_volume_cm,
    lobachevsky,
    volume_monte_carlo,
)
from .volume import (
    VolumeResult,
    schlafli_residual,
    volume_derivative,
    volume_edges,
    volume_profile,
    volume_regular,
    volume_sforza,
)

__version__ = "0.1.0"

__all__ = [
    "CofactorSet",
    "DegenerateError",
    "DihedralAngles",
    "DomainError",
    "EDGE_KEYS",
    "EdgeLengths",
    "EdgeMatrix",
    "ExistenceError",
    "ExistenceReport",
    "HytetError",
    "InconsistentAnglesError",
    "JacobiResiduals",
    "L34Bounds",
    "MonteCarloConfig",
    "NotATetrahedronError",
    "NumericalError",
    "VertexEmbedding",
    "VolumeResult",
    "cofactors",
    "dihedral_angles",
    "dihedral_angles_geometric",
    "edge_matrix_from_lengths",
    "embed_vertices",
    "euclidean_volume_cm",
    "exists",
    "expansion_residual",
    "gram_from_angles",
    "jacobi_residuals",
    "l34_bounds",
    "lobachevsky",
    "opposite_pair",
    "schlafli_residual",
    "volume_derivative",
    "volume_edges",
    "volume_monte_carlo",
    "volume_profile",
    "volume_regular",
    "volume_sforza",
]
