"""Numerical laboratory for the conformal relativistic top.

The package verifies, as floating-point identities, the chain that starts
from a ten-dimensional configuration space (spacetime times the proper
Lorentz group), equips it with an invariant metric and a scale gauge,
linearizes the resulting Hamilton-Jacobi pair into a single wave equation,
and reduces that equation on the smallest spinor representations to the
squared Dirac operator with its anomalous-coupling counterterm.
"""

__version__ = "0.1.0"

from .config_space import (
    MINKOWSKI,
    NULL_TOL,
    RAPIDITY_MAX,
    GroupMetric,
    TopMetric,
    frame_coefficients,
    generators,
    killing_vectors,
    lorentz_from_angles,
    sample_point,
)
from .dirac import (
    MassScale,
    dispersion_root,
    gamma_matrices,
    mass_closure_defect,
    mass_spin_spectrum,
    squared_dirac_matrix,
    top_spinor_matrix,
)
from .dynamics import (
    DegenerateDirection,
    Trajectory,
    TransportReport,
    integrate_bundle,
    integrate_trajectory,
    transport_check,
    velocity_field,
)
from .fields import BandLimitedField, LinearField, draw_field
from .geometry import (
    ConstantMetric,
    MetricField,
    ScaledMetric,
    SphereMetric,
    WeylGauge,
    christoffel_at,
    conformal_transform,
    covariant_divergence_at,
    laplace_beltrami,
    riemann_scalar_at,
    weyl_scalar_at,
)
from .hj import (
    EMConfig,
    WaveInputs,
    born_density,
    conformal_coupling,
    divergence_residual,
    draw_wave_inputs,
    hj_residual,
    linearization_check,
    momentum_covector,
    raised_momentum,
    wave_ansatz,
    wave_operator,
)
from .lorentz_reps import (
    Irrep,
    angular_laplacian_check,
    casimir_value,
    conjugation_defect,
    d_matrix,
    d_matrix_inverse,
    irrep_generators,
    reps_up_to_dim,
    su2_generators,
    vector_intertwiner,
)
from .report import (
    CheckRecord,
    build_report,
    check_at_least,
    check_close,
    dump_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
