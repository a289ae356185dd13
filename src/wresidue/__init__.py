"""Exact symbolic engine for residue-trace boundary computations of torsion
Dirac operators on 4-manifolds with boundary.

Everything is exact over the Gaussian rationals; pi and the tangential
co-sphere volume Omega3 stay symbolic.  See the README for the module map
and the CLI entry point `wresidue`.
"""

from .gaussian import GRat
from .scalars import (
    EngineError,
    Indeterminate,
    Poly,
    Registry,
    ScalarExpr,
    sym,
)
from .clifford import CliffordExpr, cl_trace, matrix_oracle_trace
from .halfplane import pi_minus, pi_plus, pi_prime, principal_part
from .integration import integrate_xi_n, numeric_contour_oracle, sphere_moment
from .symbols import GradedSymbol, SymbolComponent, builtin_symbol, compose, invert
from .interior import EndomorphismE, curvature_trace_identities, einstein_functional_rhs, trace_e
from .pipeline import CaseSpec, PhiReport, compute_case_term, enumerate_cases, total_boundary_term
from .report import RunConfig, compare_with_reference, emit, run_computation

__version__ = "0.1.0"
