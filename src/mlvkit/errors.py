"""Typed errors with stable machine-readable codes."""

from __future__ import annotations


class MlvError(Exception):
    """Base error; ``code`` is a stable identifier used by tests and the CLI."""

    code = "ERROR"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class InvariantViolated(MlvError):
    """An internal consistency check failed: a bug, never a property of the input."""

    code = "INVARIANT_VIOLATED"


class InvertZero(MlvError):
    code = "INVERT_ZERO"


class MixedFields(MlvError):
    code = "MIXED_FIELDS"


class NegativeValue(MlvError):
    code = "NEGATIVE_VALUE"


class NotInValueGroup(MlvError):
    code = "NOT_IN_VALUE_GROUP"


class NegativeExponent(MlvError):
    code = "NEGATIVE_EXPONENT"


class BadFieldOrder(MlvError):
    """A requested finite field order is not a prime power of the given p."""

    code = "BAD_FIELD_ORDER"


class NonMonicBase(MlvError):
    code = "NON_MONIC_BASE"


class ConstantBase(MlvError):
    code = "CONSTANT_BASE"


class DivByZero(MlvError):
    code = "DIV_BY_ZERO"


class ValueNotIncreased(MlvError):
    code = "VALUE_NOT_INCREASED"


class NotAKeyPolynomial(MlvError):
    code = "NOT_A_KEY_POLYNOMIAL"


class ZeroInput(MlvError):
    code = "ZERO_INPUT"


class ImperfectResidueUnsupported(MlvError):
    code = "IMPERFECT_RESIDUE_UNSUPPORTED"


class NotMonic(MlvError):
    code = "NOT_MONIC"


class NotSquarefree(MlvError):
    """g has a repeated factor (over a perfect field an inseparable g is a
    p-th power): every irreducible factor of ``factor`` divides g at least
    twice."""

    code = "NOT_SQUAREFREE"

    def __init__(self, message: str, factor):
        super().__init__(message)
        self.factor = factor


class ResidueUnsupported(MlvError):
    code = "RESIDUE_UNSUPPORTED"


class DepthExceeded(MlvError):
    code = "DEPTH_EXCEEDED"


class BadBound(MlvError):
    code = "BAD_BOUND"


class IndexOutOfRange(MlvError):
    code = "INDEX_OUT_OF_RANGE"


class NotPurelyInertial(MlvError):
    code = "NOT_PURELY_INERTIAL"


class NotPurelyRamified(MlvError):
    code = "NOT_PURELY_RAMIFIED"


class GammaNotPositive(MlvError):
    code = "GAMMA_NOT_POSITIVE"


class DenominatorVanishes(MlvError):
    code = "DENOMINATOR_VANISHES"


class ParseError(MlvError):
    code = "PARSE_ERROR"
