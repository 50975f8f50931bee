"""Exception hierarchy shared by all prodplan stages."""

from __future__ import annotations


class ProdplanError(Exception):
    """Base class for every error raised by this package."""


# --- model loading / validation ---


class ParseError(ProdplanError):
    """Input file is not well-formed (JSON or schema level)."""


class ValidationError(ProdplanError):
    """A loaded model or goal violates its invariants.

    Carries the individual diagnostics so callers can report all of them.
    Its ``args`` are the diagnostics as a list, so it pickles.
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__(self.diagnostics)

    def __str__(self):
        lines = "; ".join(str(d) for d in self.diagnostics)
        return f"{len(self.diagnostics)} validation error(s): {lines}"


class InvalidParameter(ProdplanError):
    """Degenerate argument to a generator (layout size, load factor, ...)."""


class ShuttleOffStation(ProdplanError):
    """A shuttle's coordinates match no positioning unit.

    Shuttles only have a well-known location while parked at a PU, so this
    model cannot be planned over.
    """


# --- PDDL text handling ---


class PddlSyntaxError(ProdplanError):
    """A PDDL text fault at ``line`` and ``column``; its ``args`` are the
    constructor's, so it pickles."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(message, line, column)
        self.line = line
        self.column = column

    def __str__(self):
        return f"{self.args[0]} (line {self.line}, column {self.column})"


class UnsupportedFeature(ProdplanError):
    """Construct outside the supported PDDL 3.1 subset."""


# --- model-to-PDDL transformation ---


class TransformError(ProdplanError):
    pass


class MissingRole(TransformError):
    """A movement/drilling segment lacks one of its named specifications."""


class NonBooleanProperty(TransformError):
    """Only boolean-valued properties can be compiled to PDDL."""


# --- grounding ---


class GroundingError(ProdplanError):
    pass


class TypeMismatch(GroundingError):
    pass


class UnboundVariable(GroundingError):
    pass


# --- search ---


class BackendUnavailable(ProdplanError, ValueError):
    """The compiled search core was asked for but could not be built or
    loaded; the message says why. Also a ValueError, which library callers
    catch for a backend they cannot have."""


# --- plan validation / lifting ---


class PlanError(ProdplanError):
    pass


class _StepError(PlanError):
    """A fault at plan step ``step_index``; its ``args`` are the
    constructor's, so a process pool can pickle it back from a worker."""

    def __init__(self, step_index: int, message: str):
        super().__init__(step_index, message)
        self.step_index = step_index

    def __str__(self):
        return f"step {self.step_index}: {self.args[1]}"


class UnknownAction(_StepError):
    """Plan step names no ground action of the task."""


class PreconditionViolated(_StepError):
    pass


class GoalNotReached(PlanError):
    pass


class UnknownActionName(PlanError):
    """Plan step cannot be mapped back to a process segment."""


class UnknownObjectId(PlanError):
    """Plan argument cannot be mapped back to a model element."""


class CostMismatch(PlanError):
    """Declared plan cost differs from the recomputed per-step sum."""


class DanglingReference(ProdplanError):
    """An operations record references ids missing from the model."""


# --- external solver adapter ---


class SolverLaunchFailure(ProdplanError):
    pass


class PlanParseError(ProdplanError):
    pass
