"""Numerics for the theta-deformed Cauchy two-matrix model and the Bures
ensemble: Fox H-function kernels, bi-orthogonal polynomial families,
partition functions, correlation kernels and their hard-edge limits.
"""
from .exceptions import (CauchyBuresError, ComplexityError, DimensionError,
                         DomainError, NonConverged, PoleCollisionError,
                         PoleError, SignError, SingularPointError)
from .numerics import LogValue, SkewMatrix, pfaffian, pfaffian_bordered
from .foxh import (FoxHSpec, fox_h, g_inf, g_n, g_tilde_inf, g_tilde_n,
                   mellin_barnes)
# partition_cauchy_det and partition_bures_squared_identity are the
# route="det" / route="cauchy" partials perfbench binds; not in __all__
from .ensembles import (EnsembleParams, moment_b, moment_c, partition_bures,
                        partition_bures_squared_identity, partition_cauchy,
                        partition_cauchy_det)
from .polynomials import (PolySeries, coeff_c, jacobi_p, monic_pair, p_hat,
                          phi_bures, q_hat)
from .kernels import (KernelGrid, cd_kernel, hard_edge_kernel, hatted, k01,
                      k10, k11, make_grid)
from .correlations import (CorrelationRequest, rho_bures, rho_bures_hard_edge,
                           rho_cauchy)
from .raney import fuss_catalan_moment, raney, sz_density, sz_moment

__version__ = "0.1.0"

__all__ = [
    "CauchyBuresError", "ComplexityError", "DimensionError", "DomainError",
    "NonConverged", "PoleCollisionError", "PoleError", "SignError",
    "SingularPointError",
    "LogValue", "SkewMatrix", "pfaffian", "pfaffian_bordered",
    "FoxHSpec", "fox_h", "g_inf", "g_n", "g_tilde_inf", "g_tilde_n",
    "mellin_barnes",
    "EnsembleParams", "moment_b", "moment_c", "partition_bures",
    "partition_cauchy",
    "PolySeries", "coeff_c", "jacobi_p", "monic_pair", "p_hat", "phi_bures",
    "q_hat",
    "KernelGrid", "cd_kernel", "hard_edge_kernel", "hatted", "k01", "k10",
    "k11", "make_grid",
    "CorrelationRequest", "rho_bures", "rho_bures_hard_edge", "rho_cauchy",
    "fuss_catalan_moment", "raney", "sz_density", "sz_moment",
]
