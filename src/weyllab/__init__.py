"""Simulator for a dissipative resonator chain with two synthetic momenta.

The package computes the synthetic three-dimensional band structure of
the chain, the monopole charges of its band-touching points, the
edge-state sheets and their zero-energy arc under open boundaries, and
the driven-dissipative reflection protocol that reads all of this out
of a handful of lossy resonators.
"""

from .model import (
    DegenerateModelError,
    ModelParams,
    SyntheticMomentum,
    WeylPoint,
    linearize,
    weyl_points,
)
from .numerics import (
    EigenNonConvergenceError,
    NumericsError,
    SingularMatrixError,
    UndersampledLoopError,
    WindingResult,
    solve_shifted,
    unwrap_winding,
)
from .openchain import (
    density_profile,
    diagonalize_chain,
    edge_spectrum,
)
from .spectroscopy import (
    ArcDetection,
    detect_arc_endpoint,
    left_drive,
    reflections,
    steady_state,
    transient_oracle,
)
from .topology import (
    ChernResult,
    DegenerateGroundStateError,
    NonConvergedChernError,
    berry_curvature_numeric,
    berry_curvature_weyl,
    chern_mapped_torus,
    chern_sphere,
    monopole_sum,
)

__version__ = "0.1.0"
