"""qcft: exact q-series arithmetic and cross-checks for Rogers-Ramanujan
characters, Virasoro minimal models, zeta-regularized spectra, the compact
boson, and the K3 mock-modular coefficient series."""

from .series import DEFAULT_ORDER, FracQSeries
from .special import dedekind_eta, eisenstein, eta_eval, rr_product
from .partitions import (CountTable, PartitionConstraint, count_partitions,
                         gordon_check, unrestricted_p)
from .regularization import (ArithmeticProgressionSet, casimir_exponent,
                             critical_dimension, hurwitz_sum,
                             oscillator_partition_series, ramanujan_naive_sum,
                             twisted_oscillator_series)
from .virasoro import (MinimalModelLabel, VermaGram, bracket, central_charge,
                       character_25, effective_central_charge, gram_matrix,
                       null_vector_central_charges, ode_residual, serre_derivative,
                       torus_partition_function_25)
from .boson import (LatticeSpec, boson_partition_function,
                    continuum_determinant_ratio, lattice_determinant_ratio,
                    theta_lattice_sum, twisted_boson_partition_function)
from .mock import (JacobiPoint, MockCoefficients, appell_lerch_mu,
                   elliptic_genus_k3, extract_mock_coefficients, jacobi_theta)
from .reports import CheckReport, compare_golden, write_golden
from .config import RunConfig, load_config

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
