"""l1-sparse Tikhonov regularization via a smooth quadratic substitution.

The substitution x = N(x~), N(x~)_k = sign(x~_k) x~_k^2, turns the nonsmooth
penalty ||x||_1 into ||x~||_2^2, so second-order methods apply.  The package
bundles the transform and its C^2 smoothing, first- and second-order solvers
for both formulations, and a parallel-beam tomography benchmark.
"""

from .config import SOLVER_NAMES, ConfigError, ExperimentConfig, parse_config
from .experiment import run_experiment
from .functionals import (
    ProblemData,
    back_transform,
    eval_J,
    eval_T,
    grad_J,
    hessian_operator,
)
from .linalg import (
    CGResult,
    CurvatureError,
    SparseMatrix,
    as_vector,
    cg_solve,
)
from .solvers import (
    DivergenceError,
    IterationTrace,
    SolverConfig,
    check_discrepancy,
    run_fista,
    run_gradient_descent,
    run_ista,
    run_levenberg_marquardt,
    run_newton,
    soft_threshold,
)
from .tomo import (
    NoiseModel,
    ProblemInstance,
    TomoGeometry,
    add_noise,
    build_parallel_tomo,
    ray_cell_chords,
    shepp_logan,
    write_pgm,
)
from .transform import (
    TransformSpec,
    apply_N,
    apply_N_eps,
    apply_N_inverse,
    eta_eps,
    eta_eps_d1,
    eta_eps_d2,
    gradient_diag,
    hessian_diag,
)

__version__ = "0.1.0"
