"""Kernel/Gaussian-process solver for PDEs with rough forcing.

The residual of the PDE is measured in a discretized negative-order
Sobolev seminorm over a finite test basis, the solution is sought in the
RKHS of a Matern kernel, and nonlinear problems are handled by
Gauss-Newton iterations on the resulting equality-constrained quadratic
programs.  Includes seeded rough-noise sampling, semi-implicit SPDE time
stepping, spectral reference solvers, and a benchmark CLI (``nes-solve``).
"""

from .errors import ConfigError, DegenerateFeaturesError, DivergenceError, \
    ResolutionTooCoarseError, StageError, UnsupportedExponentError
from .experiments import ExperimentConfig, run_experiment
from .gauss_newton import Representer, SolveReport, SolverConfig, evaluate, \
    solve
from .kernels import FeatureSet, GramBlocks, KernelSpec, assemble_features, \
    evaluate_features, kernel_matrix
from .metrics import fit_rate, rel_l2_error, space_time_l2_error
from .noise import NoisePath, sample_white_noise_spectral, \
    sample_wiener_increment
from .operators import Linearization, OperatorSpec, apply, linearize
from .reference import closed_form_elliptic_1d, manufactured_semilinear_2d, \
    spectral_galerkin_spde
from .seminorm import SeminormContext, seminorm_squared
from .spaces import GridFunction, MeasurementVector, TestSpace, \
    build_test_space, mass_matrix, project, stiffness_matrix, synthesize
from .spde import SpdeConfig, Trajectory, integrate

__version__ = "0.1.0"
