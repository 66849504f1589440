"""Simulation and exact-verification toolkit for the 1D Ising ring under
Wolff and Glauber dynamics: exact kernels and detailed balance at small N,
log-Sobolev/Poincare certification, ergodic-average bounds, and the
covariance-spectrum contrast between the subcritical regime and the
critical point."""

from .model import (
    INFINITE,
    BRUTE_SITE_LIMIT,
    KERNEL_SITE_LIMIT,
    Configuration,
    CriticalCouplingError,
    DerivedConstants,
    GibbsMeasure,
    ModelParams,
    ResourceLimitError,
    derived_constants,
    gibbs_measure,
    susceptibility_closed_form_bound,
    two_point_correlation,
)
from .clusters import (
    ClusterDecomposition,
    FlipSet,
    decompose,
    edge_boundary,
    is_connected,
    vertex_boundary,
)
from .randomness import RngStream
from .dynamics import (
    GLAUBER,
    WOLFF,
    InitialLaw,
    decode_states,
    hitting_time_aligned,
    iter_chain,
    run_chain,
    sample_stationary,
    sample_stationary_many,
)
from .kernel import (
    EmpiricalCheck,
    SpectralDecomposition,
    TransitionKernel,
    build_glauber_kernel,
    build_wolff_kernel,
    check_detailed_balance,
    empirical_vs_exact,
    symmetrize_and_decompose,
    wolff_dual_form_disagreement,
    wolff_entry_from_boundary,
    wolff_entry_from_components,
    write_matrix_dump,
)
from .functionals import (
    InequalityReport,
    certification_sweep,
    certify_lsi,
    character_function,
    dirichlet_form,
    entropy,
    ergodic_l2_bound,
    indicator_function,
    lsi_constant_bound,
    poincare_constant_bound,
)
from .spectra import (
    CellResult,
    CovarianceAccumulator,
    CovarianceRun,
    ExperimentCell,
    eigenvalues_symmetric,
    evaluate_cell,
    exact_limit_covariance,
    gershgorin_norm,
    khat_norm_bound,
    run_covariance_chain,
    subcritical_norm_bound,
)

__version__ = "0.7.0"
