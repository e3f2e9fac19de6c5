"""mlvkit: exact computation of inductive valuations, key polynomial
chains, graded rings and tameness criteria over concrete valued fields."""

from .values import INFINITY, Q, Value, ValueGroup
from .fields import FpPerfField, FpctField, FqtField, QpField, ValuedField, field_arith
from .poly import Poly, hasse_derivative, phi_expansion
from .graded import (SemigroupRingElement, check_psi_homomorphism, frobenius,
                     frobenius_surjective, initial_form, pth_root, twisted_mul)
from .indval import InductiveValuation, truncation_eval
from .engine import (Branch, ExtensionReport, ScanResult, defect,
                     finite_complete_sequence, induced_value, mac_lane_chains,
                     psi_m_scan)
from .analyzer import (KahlerReport, TameReport, drvg_check,
                       kahler_purely_inertial, kahler_purely_ramified,
                       stable_value, tame_report, te1_witness, te_conditions)
from .parsing import parse_element, parse_field, parse_graded, parse_poly

__version__ = "0.1.0"

__all__ = [
    "INFINITY", "Q", "Value", "ValueGroup",
    "QpField", "FqtField", "FpPerfField", "FpctField", "ValuedField",
    "field_arith",
    "Poly", "phi_expansion", "hasse_derivative",
    "SemigroupRingElement", "initial_form",
    "twisted_mul", "check_psi_homomorphism", "frobenius",
    "frobenius_surjective", "pth_root",
    "InductiveValuation", "truncation_eval",
    "Branch", "ExtensionReport", "ScanResult", "mac_lane_chains",
    "induced_value", "psi_m_scan",
    "finite_complete_sequence", "defect",
    "TameReport", "KahlerReport", "te_conditions", "te1_witness",
    "tame_report", "kahler_purely_inertial",
    "kahler_purely_ramified", "drvg_check", "stable_value",
    "parse_field", "parse_element", "parse_poly", "parse_graded",
]
