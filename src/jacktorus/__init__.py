"""Vector-valued nonsymmetric Jack polynomials and their torus orthogonality measure.

Exact construction of the polynomials over the rationals, the graded
recurrence for the matrix Fourier coefficients of the orthogonality
measure, positivity checks through Cesaro-summed kernel approximants, and
the first-order connection satisfied by the measure's density.
"""

__version__ = "0.1.0"

from .coeffs import CoeffStore
from .compositions import count_Z, enumerate_Z, rank_perm, triangular_lt
from .errors import (
    InvalidShape,
    JackTorusError,
    PathNearSingular,
    PoleExcluded,
    SingularPoint,
    SpectralCollision,
)
from .kernels import TorusPoint, cesaro_weight, h_matrix, kernel_eval, psd_report
from .laurent import VVLaurent, cherednik, dunkl, e_shift, group_action
from .scalars import KappaParam, default_kappa, make_kappa
from .tableaux import Partition, RSYT, enumerate_rsyt, norm0, rep_matrix, t_zero
from .torusform import FormContext, covariant_norm, e_factor, gram, norm_partition, pair
from .ybgraph import NsjpGraph, spectral_vector

__all__ = [
    "CoeffStore",
    "FormContext",
    "InvalidShape",
    "JackTorusError",
    "KappaParam",
    "NsjpGraph",
    "Partition",
    "PathNearSingular",
    "PoleExcluded",
    "RSYT",
    "SingularPoint",
    "SpectralCollision",
    "TorusPoint",
    "VVLaurent",
    "cesaro_weight",
    "cherednik",
    "count_Z",
    "covariant_norm",
    "default_kappa",
    "dunkl",
    "e_factor",
    "e_shift",
    "enumerate_Z",
    "enumerate_rsyt",
    "gram",
    "group_action",
    "h_matrix",
    "kernel_eval",
    "make_kappa",
    "norm0",
    "norm_partition",
    "pair",
    "psd_report",
    "rank_perm",
    "rep_matrix",
    "spectral_vector",
    "t_zero",
    "triangular_lt",
]
