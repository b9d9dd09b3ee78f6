"""Exception types shared across the package."""


class DampcertError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInputError(DampcertError, ValueError):
    """An operation received an input it is not defined for (e.g. the zero
    polynomial where a nontrivial one is required)."""


class PoleAtEvaluationPointError(DampcertError, ArithmeticError):
    """A rational function was evaluated at (or numerically too close to)
    one of its poles."""

    def __init__(self, s, message=None):
        self.s = s
        super().__init__(message or f"evaluation point {s} is a pole")


class LineResonanceError(DampcertError, ArithmeticError):
    """A line admittance was requested at a resonance frequency of the
    line dynamics."""

    def __init__(self, s, message=None):
        self.s = s
        super().__init__(message or f"line admittance singular at s = {s}")


class ReductionSingularityError(DampcertError, ArithmeticError):
    """Kron reduction refused an interior node: its pivot, were it
    eliminated last, is below ``PIVOT_REL_TOL`` times its diagonal entry,
    or the interior block is exactly singular."""

    def __init__(self, node, message=None):
        self.node = node
        super().__init__(message or f"singular pivot while eliminating node {node!r}")


class ConfigurationError(DampcertError, ValueError):
    """A study configuration (file or in-memory) violates an invariant."""


class CertificateInapplicableError(DampcertError):
    """A precondition of the boundary certificate fails (device entry not
    analytic on the prohibited domain, or a pole sits on the sampled
    boundary), so no verdict can be issued."""
