"""Exception types shared across the package."""


class DampedWaveError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(DampedWaveError):
    """A field does not match the dimension of its grid."""


class SingularSystem(DampedWaveError):
    """A linear solve hit a (numerically) singular matrix."""


class NonConvergence(DampedWaveError):
    """A scalar root-find failed its tolerance; indicates a bug upstream."""


class NewtonDiverged(DampedWaveError):
    """The implicit step's Newton iteration blew up."""

    def __init__(self, step, iteration, residual):
        self.step = step
        self.iteration = iteration
        self.residual = residual
        super().__init__(
            f"Newton diverged at step {step}, iteration {iteration}, "
            f"residual {residual:.3e}"
        )


class StepRejected(DampedWaveError):
    """Newton ran out of iterations without meeting the tolerance."""

    def __init__(self, step, residual, tol):
        self.step = step
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"step {step} rejected: residual {residual:.3e} > tol {tol:.3e} "
            f"after max iterations"
        )


class TimeNotOnGrid(DampedWaveError):
    """Requested time does not coincide with a recorded grid time."""


class InadmissibleTestFunction(DampedWaveError):
    """Test function violates the boundary-condition or vanishing constraints."""


class OutOfValidityWindow(DampedWaveError):
    """Closed-form toy solution queried beyond its derivation window."""


class ConfigError(DampedWaveError):
    """Configuration invalid; `key` names the offending entry."""

    def __init__(self, key, message):
        self.key = key
        self.message = message
        super().__init__(f"{key}: {message}")

    def __reduce__(self):
        # a sweep member's process sends its error pickled
        return type(self), (self.key, self.message)


class RunError(DampedWaveError):
    """A simulation failed; wraps the underlying error with run context."""


class MissingArtifact(DampedWaveError):
    """A required artifact file is absent from the run directory."""
