"""Simulation toolkit for quantum nondemolition measurement of a collective
atomic spin via polarized light: the exact measurement operator, outcome
statistics and sampling, its short-time Gaussian and projective limits, and
state diagnostics (squeezing, parity patterns, cat states, spin Wigner
function).

The public names below resolve on first use (PEP 562): `import qnd_povm`
loads no submodule, and `qnd_povm.wigner` imports `qnd_povm.analysis` only
when it is first read.  The submodules are public names too.  A command
line run therefore loads only the modules its subcommand calls.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "analysis": ("DensityMatrix", "ParityCase", "ParityPattern", "SqueezingReport",
                 "WignerGrid", "cat_fidelity", "cat_state", "density_from_state",
                 "parity_pattern_check", "squeezing_report", "wigner"),
    "approx": ("GaussianModel", "ProjectiveParams", "approx_apply", "gaussian_amplitude",
               "gaussian_model", "peak_solutions", "project", "projective_params"),
    "errors": ("ConfigError", "DomainError", "PreconditionError", "QndError",
               "ResourceCapError", "ZeroProjectionError"),
    "numerics": ("clebsch_gordan", "log_factorial", "twice"),
    "povm": ("OutcomeDistribution", "PhotonOutcome", "QndParams", "amplitude", "apply",
             "condition", "condition_many", "detector_phases", "eigen", "log_amplitude",
             "log_matrix_element", "log_matrix_element_direct", "outcome_distribution",
             "params_from_json", "params_to_json", "phase_phi", "posterior",
             "sample_outcomes"),
    "spin_state": ("CollectiveState", "SpinMoments", "coherent_state", "dicke_state",
                   "moments", "normalize", "overlap", "scale_amplitudes", "state_from_json",
                   "state_to_json"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it here, so this runs once per submodule
        return import_module(f".{name}", __name__)
    if name in _HOME:
        # not cached here: the name always reads the submodule's current binding
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
