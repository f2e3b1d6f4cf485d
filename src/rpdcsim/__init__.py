"""Rotated polarization directional coupler simulation and analysis.

Jones/Stokes polarization algebra, rotated-retarder birefringence with
axis calibration and recovery, coupled-mode propagation (analytic and
numeric), the composed two-port device model with extinction and sweep
diagnostics, and single-qubit state tomography with linear and
maximum-likelihood reconstruction.
"""

import types

from .polarization import (
    CARDINAL_STATES,
    DensityMatrix,
    JonesVector,
    RHO_MIXED,
    StokesVector,
    cardinal_state,
    density_to_stokes,
    fidelity,
    jones_to_density,
    linear_polarizer,
    purity,
    rotated_diagonal,
    rotation_deg,
    stokes_to_density,
)
from .birefringence import (
    AxisCalibration,
    AxisUnobservableError,
    RotatedRetarder,
    axis_from_offset,
    crossed_polarizer_transmission,
    find_axis,
    fit_axis,
    load_axis_calibration,
    retardance_from_physics,
    retarder_jones,
)
from .coupling import (
    CouplerParams,
    ModeAmplitudes,
    bend_phase_from_shortening,
    coupler_transfer_matrix,
    cross_coupling_ratio,
    pdc_coupling_length,
    propagate_analytic,
    propagate_numeric,
)
from .device import (
    AxisCheckResult,
    PortPowers,
    RpdcDevice,
    SweepPoint,
    axis_port_powers,
    extinction_db,
    extinction_ratios,
    load_device,
    make_pdc_device,
    port_transfer_matrices,
    save_device,
    simulate_axis_check,
    sweep_coupling_length,
)
from .tomography import (
    MeasurementRecord,
    MleDivergenceError,
    NoiseConfig,
    TomographyResult,
    cardinal_density,
    linear_reconstruct,
    load_measurement_csv,
    measure_records,
    mle_reconstruct,
    povm_effects,
    project_probabilities,
    run_tomography_experiment,
    save_measurement_csv,
    waveplate_settings,
)

__version__ = "0.1.0"

# the imports above are the only list of public names
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, types.ModuleType))
