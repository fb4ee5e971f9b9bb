"""Exception types shared across the package.

Plain ValueError is used for malformed inputs (non-finite numbers, bad
lengths, out-of-range parameters). The classes below mark conditions a
caller may want to handle separately, for example to map them to distinct
process exit codes.
"""

from __future__ import annotations

from collections.abc import Callable


class HarqOptError(Exception):
    """Base class for package-specific failures."""


class GridError(HarqOptError, ValueError):
    """A grid size outside its supported range: convolution bins outside
    [MIN_CONV_BINS, MAX_CONV_BINS], or a rate grid with too many allocations
    to enumerate."""


class ConvergenceError(HarqOptError, RuntimeError):
    """An iterative numerical routine stopped short of its tolerance.

    The best available estimate is attached so callers can still inspect it.
    """

    def __init__(self, message: str, estimate: float | None = None):
        super().__init__(message)
        self.estimate = estimate


class InfeasibleError(HarqOptError, RuntimeError):
    """No candidate satisfies the outage constraint.

    ``min_outage`` records the smallest achievable outage found, when known;
    it may be given as a callable, evaluated on first read, so that callers
    who drop the error do not pay for it. ``iteration`` is the
    alternating-optimization step that hit the wall.
    """

    def __init__(self, message: str,
                 min_outage: float | Callable[[], float] | None = None,
                 iteration: int | None = None):
        super().__init__(message)
        self._min_outage = min_outage
        self.iteration = iteration

    @property
    def min_outage(self) -> float | None:
        if callable(self._min_outage):
            self._min_outage = self._min_outage()
        return self._min_outage


class ConfigError(HarqOptError, ValueError):
    """A run configuration failed to parse or violated a field bound."""
