"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "WeakmeterError",
    "SignatureError",
    "DegeneratePostselectionError",
    "AnnihilationError",
    "IllConditionedFitError",
    "NumericalOverflowError",
    "ScenarioError",
    "ScenarioSyntaxError",
    "UnknownIdError",
    "UnknownKeyError",
    "ParameterRangeError",
]


class WeakmeterError(ValueError):
    """Base class for all package-specific errors."""


class SignatureError(WeakmeterError):
    """Tensor-factor labels conflict or do not match."""


class DegeneratePostselectionError(WeakmeterError):
    """Pre- and post-selected states are (numerically) orthogonal.

    Weak values diverge as the overlap vanishes, so they are not reported
    below the overlap threshold.  ``overlap_abs`` carries |<post|pre>| scaled
    by the state norms.
    """

    def __init__(self, message: str, overlap_abs: float):
        super().__init__(message)
        self.overlap_abs = float(overlap_abs)


class AnnihilationError(WeakmeterError):
    """Post-selection annihilated the state (zero result)."""


class IllConditionedFitError(WeakmeterError):
    """Pointer fit has no usable spread across the grid, or no coupling to divide by."""


class NumericalOverflowError(WeakmeterError):
    """A finite input drove a quantity past what its representation holds.

    Either an intermediate left the float range, or a kick's phase per grid
    step plus the pointer's p-width reached pi, the meter grid's zone limit,
    past which the pointer reading aliases.
    """


class ScenarioError(WeakmeterError):
    """Base class for bad input: scenario files and the parameter rules they share."""


class ScenarioSyntaxError(ScenarioError):
    """Malformed scenario text; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class UnknownIdError(ScenarioError):
    """A state id, observable id or coupling variant is not in the catalog."""


class UnknownKeyError(ScenarioError):
    """A scenario document contains a key outside the schema (strict mode)."""


class ParameterRangeError(ScenarioError):
    """A coupling, meter or state parameter is missing or outside its allowed range.

    Raised alike by the library constructors (``CouplingSpec``,
    ``make_meter``, ``named_state``) and by scenario validation, which calls
    their rules; messages name the scenario field (``coupling.t``, ``meter.N``).
    """
