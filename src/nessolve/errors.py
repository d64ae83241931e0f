"""Exception types shared across the package."""


class ResolutionTooCoarseError(ValueError):
    """Quadrature or projection grid cannot resolve the requested modes."""


class ConfigError(ValueError):
    """An experiment parameter breaks its rule; ``key``, ``value`` and
    ``rule`` say which, with what value, and what it must be."""

    def __init__(self, key, value, rule):
        super().__init__(f"parameter {key!r} = {value!r} must be {rule}")
        self.key = key
        self.value = value
        self.rule = rule


class UnsupportedExponentError(ValueError):
    """Sobolev exponent not supported for the given basis kind."""


class DegenerateFeaturesError(RuntimeError):
    """The saddle-point system of a solver step is singular."""

    def __init__(self, message, block=None):
        super().__init__(message)
        self.block = block


class DivergenceError(RuntimeError):
    """Solver iteration produced a non-finite loss."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class StageError(RuntimeError):
    """An experiment stage failed; ``cause`` is the original exception.

    The cause keeps its type and attributes (``DegenerateFeaturesError.block``,
    ``DivergenceError.iteration``) and is also chained as ``__cause__``.
    """

    def __init__(self, stage, cause):
        super().__init__(f"experiment stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
