"""Exception types shared across the package."""


class MFSBError(Exception):
    """Base class for all errors raised by this package."""


class GridMismatch(MFSBError):
    """Two objects live on different spatial or temporal grids."""


class NonZeroMass(MFSBError):
    """A continuity-equation source does not integrate to zero."""


class TooLarge(MFSBError):
    """Input exceeds a hard size guard (e.g. the particle count of the theta map)."""


class NoConvergence(MFSBError):
    """An iterative routine exhausted its budget before reaching tolerance."""


class CFLViolation(MFSBError):
    """The time step under-resolves the drift relative to the cell size."""


class ContinuityViolation(MFSBError):
    """A (flow, momentum) pair does not satisfy the discrete continuity equation."""


class InfeasibleEndpoints(MFSBError):
    """Endpoint densities fail the admissibility validation."""


class ScenarioError(MFSBError):
    """Base class for scenario loading and validation failures."""


class ParseError(ScenarioError):
    """A scenario file is structurally malformed."""


class HypothesisViolation(ScenarioError):
    """A scenario violates one of the standing hypotheses H1..H4."""

    def __init__(self, hypothesis: str, message: str):
        self.hypothesis = hypothesis
        super().__init__(f"{hypothesis}: {message}")


class FormatVersionMismatch(MFSBError):
    """A persisted file carries an unsupported format version."""


class ChecksumMismatch(MFSBError):
    """A persisted binary file failed its integrity check."""
