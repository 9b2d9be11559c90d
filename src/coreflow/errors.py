"""Exception types shared across the package."""


class CoreflowError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(CoreflowError):
    """Operand shapes or label extents disagree."""


class LabelError(CoreflowError):
    """A contraction label is used in a way the plan grammar forbids."""


class NumericalError(CoreflowError):
    """An operation produced a NaN or Inf, or a value outside the range the
    next operation needs (a DAS factor 1 + lambda_k <= 0, which would flip
    the sign of core k)."""


class LengthMismatch(CoreflowError):
    """Paired scalar sequences have different lengths."""


class DegenerateVariance(CoreflowError):
    """The masked target has zero variance; R^2 is undefined."""


class ZeroGradient(CoreflowError):
    """All core gradients vanish; a gradient-normalized step is undefined."""


class ZeroCoreNorm(CoreflowError):
    """A core has (numerically) zero norm; deviation-aware scaling is undefined."""


class FormatError(CoreflowError):
    """A tensor file is malformed or truncated."""


class ParseError(CoreflowError):
    """A config file could not be parsed.  Message carries line context."""


class ValidationError(CoreflowError):
    """A parsed config violates a documented constraint."""


class DegenerateModelWarning(UserWarning):
    """The reconstructed tensor is zero; a relative residual is meaningless."""
