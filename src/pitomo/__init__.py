"""Simulation and reconstruction for two-source path-identity interferometry.

The package simulates an interferometer in which one photon of a pair
is read out only through the interference fringes of its partner, and
implements the full analysis chain that recovers the unread photon's
polarization density matrix from those fringes: scan synthesis with
shot noise, visibility calibration, fringe-based extraction and
least-squares refinement, and fidelity reporting.
"""

from ._kernels import active_backend
from .qcore import (ComplexMatrix, DensityMatrix, eigenvalues_hermitian,
                    fidelity_mixed, fidelity_pure, is_positive_semidefinite,
                    kron, partial_trace, qubit_state_fidelity)
from .states import (IdlerStateParams, SourceQ2Params, WaveplateKind,
                     WaveplateSetting, idler_density_matrix,
                     params_from_density_matrix, prepared_idler_params,
                     waveplate_unitary)
from .interferometer import (DetectionRates, InterferometerConfig,
                             SignalSetting, apply_alignment,
                             coherence_stressed_state,
                             post_interaction_idler, random_valid_config,
                             rates_closed_form, rates_exact, recombine,
                             signal_reduced_state, total_state,
                             visibilities_closed_form)
from .acquisition import (CalibrationResult, ScanPlan, ScanRecord,
                          run_calibration, run_scan)
from .reconstruct import (ConvergenceError, FitError, CalibrationError,
                          Method, ReconstructionResult, SinusoidFit,
                          extract_parameters, fit_sinusoid, mle_cost,
                          mle_reconstruct, report_fidelity)

__version__ = "0.1.0"

__all__ = [
    "ComplexMatrix", "DensityMatrix", "eigenvalues_hermitian",
    "fidelity_mixed", "fidelity_pure", "is_positive_semidefinite", "kron",
    "partial_trace", "qubit_state_fidelity",
    "IdlerStateParams", "SourceQ2Params", "WaveplateKind", "WaveplateSetting",
    "idler_density_matrix", "params_from_density_matrix",
    "prepared_idler_params", "waveplate_unitary",
    "DetectionRates", "InterferometerConfig", "SignalSetting",
    "apply_alignment", "coherence_stressed_state", "post_interaction_idler",
    "random_valid_config", "rates_closed_form", "rates_exact", "recombine",
    "signal_reduced_state", "total_state", "visibilities_closed_form",
    "CalibrationResult", "ScanPlan", "ScanRecord", "run_calibration",
    "run_scan",
    "ConvergenceError", "FitError", "CalibrationError", "Method",
    "ReconstructionResult", "SinusoidFit", "extract_parameters",
    "fit_sinusoid", "mle_cost", "mle_reconstruct", "report_fidelity",
    "active_backend",
    "__version__",
]
