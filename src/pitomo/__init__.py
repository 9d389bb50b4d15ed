"""Simulation and reconstruction for two-source path-identity interferometry.

The package simulates an interferometer in which one photon of a pair
is read out only through the interference fringes of its partner, and
implements the full analysis chain that recovers the unread photon's
polarization density matrix from those fringes: scan synthesis with
shot noise, visibility calibration, fringe-based extraction and
least-squares refinement, and fidelity reporting.  The exact matrix
evolution (:func:`rates_exact`) is the oracle that ``pitomo verify``
checks the closed-form rate law (:func:`fringe`) against.
"""

from ._kernels import active_backend
from .qcore import DensityMatrix, fidelity_mixed, qubit_state_fidelity
from .states import (IdlerStateParams, SourceQ2Params, WaveplateKind,
                     WaveplateSetting, prepared_idler_params,
                     waveplate_unitary)
from .interferometer import (DetectionRates, Fringe, InterferometerConfig,
                             SignalSetting, coherence_stressed_state, fringe,
                             random_valid_config, rates_closed_form,
                             rates_exact, total_state)
from .acquisition import (CalibrationResult, ScanPlan, ScanRecord,
                          run_calibration, run_scan)
from .reconstruct import (ConvergenceError, FitError, Method,
                          ReconstructionResult, SinusoidFit,
                          extract_parameters, fit_sinusoid, mle_reconstruct,
                          report_fidelity)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix", "fidelity_mixed", "qubit_state_fidelity",
    "IdlerStateParams", "SourceQ2Params", "WaveplateKind", "WaveplateSetting",
    "prepared_idler_params", "waveplate_unitary",
    "DetectionRates", "Fringe", "InterferometerConfig", "SignalSetting",
    "coherence_stressed_state", "fringe", "random_valid_config",
    "rates_closed_form", "rates_exact", "total_state",
    "CalibrationResult", "ScanPlan", "ScanRecord", "run_calibration",
    "run_scan",
    "ConvergenceError", "FitError", "Method",
    "ReconstructionResult", "SinusoidFit", "extract_parameters",
    "fit_sinusoid", "mle_reconstruct", "report_fidelity",
    "active_backend",
    "__version__",
]
