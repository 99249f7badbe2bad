"""Compact hyperbolic tetrahedra from their six edge lengths.

The package decides existence, computes dihedral angles through the
edge-matrix cofactor cosine rule, and computes volume by direct quadrature
of the edge-length derivative, with three independent verification routes:
the one-angle logarithmic volume integral, a hyperboloid-model coordinate
embedding, and Monte Carlo integration in the Klein ball.
"""

__version__ = "0.1.0"

# submodule: the public names it defines, each imported on first access
_EXPORTS = {
    "angles": ("DihedralAngles", "dihedral_angles", "gram_from_angles"),
    "core": ("EDGE_KEYS", "CofactorSet", "EdgeLengths", "EdgeMatrix", "JacobiResiduals",
             "cofactors", "edge_matrix_from_lengths", "expansion_residual", "jacobi_residuals",
             "opposite_pair"),
    "errors": ("DegenerateError", "DomainError", "ExistenceError", "HytetError",
               "InconsistentAnglesError", "NotATetrahedronError", "NumericalError"),
    "existence": ("ExistenceReport", "L34Bounds", "exists", "l34_bounds"),
    "oracle": ("MonteCarloConfig", "VertexEmbedding", "dihedral_angles_geometric",
               "embed_vertices", "euclidean_volume_cm", "lobachevsky", "volume_monte_carlo"),
    "volume": ("VolumeResult", "clausen", "schlafli_residual", "volume_derivative", "volume_edges",
               "volume_profile", "volume_regular", "volume_sforza"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules ``hytet.<name>`` imports on first access; hytet.cli is imported by name
_SUBMODULES = ("angles", "config", "core", "errors", "existence", "oracle", "quadrature", "volume")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name or a submodule, imported and bound here on first access
    (PEP 562), so that ``import hytet`` loads no submodule."""
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    """Every public name and submodule, loaded or not, and the module's own dunders."""
    own = (name for name in globals() if name[:1] != "_" or name[-2:] == "__")
    return sorted({*own, *__all__, *_SUBMODULES} - {"__getattr__", "__dir__"})
