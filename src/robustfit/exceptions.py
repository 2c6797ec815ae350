"""Exception hierarchy shared by all robustfit modules."""

from __future__ import annotations


class RobustFitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(RobustFitError, ValueError):
    """An argument violates a documented precondition (shape, range, finiteness)."""


class DegenerateInputError(RobustFitError):
    """Input data admits no well-defined answer (e.g. all points coincide)."""


class DegenerateSampleError(RobustFitError):
    """A minimal sample is rank-deficient.

    Nothing in the package raises it: a degenerate sample adds no candidates
    to a solver's stack. It stays only because ``perfbench/tracing.py``
    imports it; ROADMAP item 1, which repairs that tracer, deletes it.
    """


class InsufficientDataError(RobustFitError):
    """Fewer data points than the operation needs."""


class EstimationFailedError(RobustFitError):
    """RANSAC exhausted its budget without a usable model.

    Carries the best-effort report (may be None) so callers can inspect
    whatever partial progress was made.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class GenerationFailedError(RobustFitError):
    """Synthetic-scene generation could not produce a well-conditioned scene."""


class ParseError(RobustFitError):
    """A correspondence or CSV file is malformed.

    line_no is 1-based; 0 means the problem is not tied to a single line.
    """

    def __init__(self, message: str, line_no: int = 0):
        super().__init__(f"line {line_no}: {message}" if line_no else message)
        self.line_no = line_no
