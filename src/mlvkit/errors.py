"""Typed errors with stable machine-readable codes."""

from __future__ import annotations


class MlvError(Exception):
    """Base error; ``code`` is a stable identifier used by tests and the CLI."""

    code = "ERROR"

    def __init__(self, message: str = "", code: str | None = None):
        if code is not None:
            self.code = code
        super().__init__(message or self.code)


class InvariantViolated(MlvError):
    """An internal consistency check failed: a bug, never a property of the input."""

    code = "INVARIANT_VIOLATED"


class FieldError(MlvError):
    code = "FIELD_ERROR"


class InvertZero(FieldError):
    code = "INVERT_ZERO"


class MixedFields(FieldError):
    code = "MIXED_FIELDS"


class NegativeValue(FieldError):
    code = "NEGATIVE_VALUE"


class NotInValueGroup(FieldError):
    code = "NOT_IN_VALUE_GROUP"


class NegativeExponent(FieldError):
    code = "NEGATIVE_EXPONENT"


class BadFieldOrder(FieldError):
    """A requested finite field order is not a prime power of the given p."""

    code = "BAD_FIELD_ORDER"


class PolyError(MlvError):
    code = "POLY_ERROR"


class NonMonicBase(PolyError):
    code = "NON_MONIC_BASE"


class ConstantBase(PolyError):
    code = "CONSTANT_BASE"


class DivByZero(PolyError):
    code = "DIV_BY_ZERO"


class ChainError(MlvError):
    code = "CHAIN_ERROR"


class ValueNotIncreased(ChainError):
    code = "VALUE_NOT_INCREASED"


class NotAKeyPolynomial(ChainError):
    code = "NOT_A_KEY_POLYNOMIAL"


class InfiniteGammaInInterior(ChainError):
    code = "INFINITE_GAMMA_IN_INTERIOR"


class ZeroInput(ChainError):
    code = "ZERO_INPUT"


class ImperfectResidueUnsupported(ChainError):
    code = "IMPERFECT_RESIDUE_UNSUPPORTED"


class EngineError(MlvError):
    code = "ENGINE_ERROR"


class NotMonic(EngineError):
    code = "NOT_MONIC"


class ResidueUnsupported(EngineError):
    code = "RESIDUE_UNSUPPORTED"


class DepthExceeded(EngineError):
    code = "DEPTH_EXCEEDED"


class BadBound(EngineError):
    code = "BAD_BOUND"


class IndexOutOfRange(EngineError):
    code = "INDEX_OUT_OF_RANGE"


class AnalyzerError(MlvError):
    code = "ANALYZER_ERROR"


class NotPurelyInertial(AnalyzerError):
    code = "NOT_PURELY_INERTIAL"


class NotPurelyRamified(AnalyzerError):
    code = "NOT_PURELY_RAMIFIED"


class GammaNotPositive(AnalyzerError):
    code = "GAMMA_NOT_POSITIVE"


class DenominatorVanishes(AnalyzerError):
    code = "DENOMINATOR_VANISHES"


class ParseError(MlvError):
    code = "PARSE_ERROR"
