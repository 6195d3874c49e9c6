"""Exact verification of Sp(4,R)-orbit closures of symplectic Lie algebras.

Exact structure-constant algebra over the rationals and over exponential
polynomials, the four-dimensional classification catalog with its explicit
degeneration curves, derivation-dimension and trace-form obstructions,
left-invariant Ricci curvature with signature analysis, and the assembled
degeneration diagram with its curvature applications.  This package holds
what the command-line verbs run; the independent reference implementations
the tests compare against are in tests/oracles.py.
"""

from .catalog import ClassId, class_id, curves, expected_invariants, make, parse_class
from .curvature import einstein_check, find_degenerate_ricci, levi_civita, ricci
from .degeneration import (borbit_element, hasse, non_degeneration_suite,
                           r2r2_trap_residual, theorem_b_search, verify_curve)
from .invariants import (DerivationAlgebra, SymForm, composition_trace_form,
                         derivations, derived_dim, equivariant_product, nilpotent,
                         obstruction_report, symplectic_derivations, unimodular)
from .scalars import ExpPoly
from .tensor import (Bracket, act, canonical_form, d_omega, is_closed, is_lie,
                     is_symplectic, jacobiator, symplectic_inverse, transvection)

__all__ = [
    "Bracket", "ClassId", "DerivationAlgebra", "ExpPoly",
    "SymForm", "act", "borbit_element", "canonical_form",
    "class_id", "composition_trace_form", "curves", "d_omega", "derivations",
    "derived_dim", "einstein_check", "equivariant_product",
    "expected_invariants", "find_degenerate_ricci", "hasse",
    "is_closed", "is_lie", "is_symplectic", "jacobiator",
    "levi_civita", "make", "nilpotent",
    "non_degeneration_suite", "obstruction_report",
    "parse_class", "r2r2_trap_residual", "ricci",
    "symplectic_derivations", "symplectic_inverse", "theorem_b_search",
    "transvection", "verify_curve",
]
