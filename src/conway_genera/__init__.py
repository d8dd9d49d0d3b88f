"""Exact computation of twining genera attached to Conway group classes.

The package computes, with exact arithmetic throughout, the weak Jacobi
forms attached to conjugacy classes of the Conway group through the
canonically-twisted module of the distinguished 24-fermion algebra, and
mechanically verifies the q-series identities the construction rests
on: the central eta-product identity, the theta-quotient
decompositions, the binomial decompositions at higher index, lattice
and character identities of the distinguished orbifold model, and a
brute-force trace oracle at low degree.
"""

from .conway import (ClassData, ConwayClassRecord, DataError, FrameShape,
                     bundled_data, c_squared_oracle, d_squared_oracle, load_class_data)
from .genera import (GenusRequest, f_2j_g, f_g, k3_elliptic_genus, phi_g,
                     phi_g_ell, ts_g, verify_coincidences, verify_decomposition,
                     verify_decomposition_ell, verify_eta_identity,
                     verify_jacobi_invariance)
from .scalars import RadicalScalar, format_radical, parse_radical
from .series import GridError, JacobiSeries, QSeries

__version__ = "0.1.0"

__all__ = [
    "ClassData", "ConwayClassRecord", "DataError", "FrameShape", "GenusRequest",
    "GridError", "JacobiSeries", "QSeries", "RadicalScalar",
    "bundled_data", "c_squared_oracle", "d_squared_oracle",
    "f_2j_g", "f_g", "format_radical", "k3_elliptic_genus", "load_class_data",
    "parse_radical", "phi_g", "phi_g_ell", "ts_g", "verify_coincidences",
    "verify_decomposition", "verify_decomposition_ell", "verify_eta_identity",
    "verify_jacobi_invariance", "__version__",
]
