"""Transfer matrices of block tridiagonal chains: determinant identities
linking them to ring and open operators, characteristic exponents, decay
bounds and the symplectic structure of Hermitian chains."""

from .bounds import (CornerDecayReport, DemkoParams, DichotomyReport,
                     PDDecayReport, check_corner_decay, check_pd_decay,
                     demko_params_general, demko_params_pd, dichotomy,
                     t11_singular_floor)
from .chains import (BlockChain, ModelSpec, anderson_strip, banded_random,
                     chain_to_spec, hatano_nelson, random_tridiag)
from .duality import (DualityReport, SpectralCurve, check_duality,
                      check_open_duality, check_symmetric_duality,
                      check_transfer_routes, trace_spectral_curve)
from .exponents import (ContourTooCloseError, HadamardFisherReport,
                        JensenReport, UnitCircleEigenvalueError,
                        counting_function, exponent_csv, exponent_spectrum,
                        hadamard_fisher_bound, jensen_identity_check,
                        positive_exponent_sum, sum_rule_value)
from .hamiltonian import (assemble_balanced, assemble_bloch, assemble_open,
                          logdet_shift)
from .linalg import (LogDet, SingularMatrixError, logdet_blocks, lu_logdet,
                     match_spectra, singular_values, wrap_phase)
from .resolvent import (CornerSingularError, ResolventCorners,
                        ResolventSingularError, corner_blocks,
                        factorization_residual, transfer_from_corners,
                        transfer_from_resolvent)
from .symmetry import (NotHermitianChainError, PairingReport,
                       SymplecticReport, UnitCircleReport, check_symplectic,
                       check_unit_circle_exclusion, detect_pairings,
                       sigma_form)
from .transfer import (LogEigenvalues, ProductOverflowError,
                       eigenvalues_stabilized, logdet_t11,
                       polynomial_coefficients, product,
                       stabilized_log_singular_values, steps)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
