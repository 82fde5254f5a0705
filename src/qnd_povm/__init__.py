"""Simulation toolkit for quantum nondemolition measurement of a collective
atomic spin via polarized light: the exact measurement operator, outcome
statistics and sampling, its short-time Gaussian and projective limits, and
state diagnostics (squeezing, parity patterns, cat states, spin Wigner
function).
"""

__version__ = "0.1.0"

from .analysis import (DensityMatrix, ParityCase, ParityPattern,
                       SqueezingReport, WignerGrid, cat_fidelity, cat_state,
                       density_from_state, parity_pattern_check, rho_lm,
                       squeezing_report, wigner)
from .approx import (GaussianModel, ProjectiveParams, approx_apply,
                     gaussian_amplitude, gaussian_model, peak_solutions,
                     project, projective_params)
from .errors import (ConfigError, DomainError, PreconditionError, QndError,
                     ResourceCapError, ZeroProjectionError)
from .numerics import (clebsch_gordan, log_binomial, log_factorial,
                       spherical_harmonic, twice)
from .povm import (OutcomeDistribution, PhotonOutcome, QndParams, amplitude,
                   apply, condition, condition_many, detector_phases, eigen,
                   log_amplitude, log_matrix_element, log_matrix_element_direct,
                   outcome_distribution, outcome_probability, params_from_json,
                   params_to_json, phase_phi, posterior, sample_outcome,
                   sample_outcomes)
from .spin_state import (CollectiveState, SpinMoments, coherent_state, dicke_state,
                         moments, normalize, overlap, scale_amplitudes, state_from_json,
                         state_to_json)

__all__ = [name for name in dir() if not name.startswith("_")]
