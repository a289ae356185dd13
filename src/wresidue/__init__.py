"""Exact symbolic engine for residue-trace boundary computations of torsion
Dirac operators on 4-manifolds with boundary.

Everything is exact over the Gaussian rationals; pi and the tangential
co-sphere volume Omega3 stay symbolic.  See the README for the module map
and the CLI entry point `wresidue`.

The names below are re-exported lazily (PEP 562): `wresidue.pi_plus`
imports `halfplane` on first access, and importing the package or one of
its modules loads no other module.  So a run of an interior theorem never
loads the boundary stack.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "gaussian": ("GRat",),
    "scalars": ("EngineError", "Indeterminate", "Poly", "Registry", "ScalarExpr", "sym"),
    "clifford": ("CliffordExpr", "cl_trace", "matrix_oracle_trace"),
    "halfplane": ("pi_minus", "pi_plus", "pi_prime", "principal_part"),
    "integration": ("integrate_xi_n", "numeric_contour_oracle", "sphere_moment"),
    "symbols": ("GradedSymbol", "SymbolComponent", "builtin_symbol", "compose", "invert"),
    "interior": ("EndomorphismE", "curvature_trace_identities", "einstein_functional_rhs",
                 "trace_e"),
    "pipeline": ("CaseSpec", "PhiReport", "compute_case_term", "enumerate_cases",
                 "total_boundary_term"),
    "report": ("RunConfig", "compare_with_reference", "emit", "run_computation"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
