"""Exception types for the solver and decomposition layers."""


class DegenerateWeights(FloatingPointError):
    """All weights in some row or column collapsed below 1e-300.

    Raised when the robustness weights vanish for an entire regression,
    leaving a 0/0 update. Usually means alpha is too large for the data
    scale, or the scale estimate collapsed.
    """


class RankCollapse(FloatingPointError):
    """A rank-one layer's singular value fell to zero during a fit.

    Raised when a regression step returns the zero vector, as for an
    all-zero matrix or a residual with nothing left to fit.
    """


class NonFiniteInput(ValueError):
    """Input matrix contains NaN or infinite entries."""


class RankTooLarge(ValueError):
    """Requested rank exceeds min(n, p)."""
