"""Geometric formulation of finite-level quantum mechanics.

Observables form a Jordan-Lie algebra; its two products geometrize into
tensor fields on the dual space, whose symplectic realization on C^n via
the momentum map recovers the Hilbert-space picture, geometric
eigensolving and the three equivalent dynamical pictures.
"""

from .algebra import (
    associator_defect,
    jordan_product,
    lie_bracket,
    trace_form,
)
from .distributions import orbit_invariants
from .dual import (
    hat_eval,
    is_state,
    star_eval,
    star_report,
    su2_golden_tables,
)
from .dynamics import EvolutionSpec, schrodinger_flow, heisenberg_flow, vonneumann_flow, rk4_flow
from .kahler import (
    dispersion,
    eigen_report,
    eigensolve_gradient_flow,
    expectation,
    f_quadratic,
    momentum_map,
)
from .kernel import (
    DimensionError,
    MatrixParseError,
    NumericalError,
    SpectralDecomposition,
    eig_hermitian,
    eigvals_hermitian,
    is_hermitian,
    parse_matrix,
    random_hermitian,
    serialize_matrix,
)
from .report import CONVENTIONS, ConventionSet, IdentityCheck, VerificationReport

__version__ = "0.1.0"
