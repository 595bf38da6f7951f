"""Exception hierarchy for the WARLOCK reproduction.

All exceptions raised by the library derive from :class:`WarlockError` so that
callers embedding the advisor (for instance a GUI or a web service, as the
original Java tool did) can catch a single base class at the integration
boundary while still being able to distinguish configuration problems from
modelling problems.
"""

from __future__ import annotations

__all__ = [
    "WarlockError",
    "SchemaError",
    "WorkloadError",
    "FragmentationError",
    "AllocationError",
    "CostModelError",
    "BitmapError",
    "StorageError",
    "AdvisorError",
    "EvaluationCancelled",
    "SimulationError",
    "ReportError",
    "ServiceError",
]


class WarlockError(Exception):
    """Base class for every error raised by the library."""


class SchemaError(WarlockError):
    """Raised for invalid star schema definitions (hierarchies, cardinalities...)."""


class WorkloadError(WarlockError):
    """Raised for invalid query classes or query mixes."""


class FragmentationError(WarlockError):
    """Raised for invalid fragmentation specifications or layouts."""


class AllocationError(WarlockError):
    """Raised when a disk allocation cannot be produced or is inconsistent."""


class CostModelError(WarlockError):
    """Raised when the analytical I/O model receives inconsistent inputs."""


class BitmapError(WarlockError):
    """Raised for invalid bitmap index configurations."""


class StorageError(WarlockError):
    """Raised for invalid disk or database system parameters."""


class AdvisorError(WarlockError):
    """Raised when the advisor pipeline cannot produce a recommendation."""


class EvaluationCancelled(AdvisorError):
    """Raised when a candidate sweep is cancelled at a chunk boundary.

    Everything evaluated before the cancel — including cache entries, which
    are content-addressed functions of their inputs — remains valid; retrying
    the request resumes warm.
    """


class SimulationError(WarlockError):
    """Raised by the event-driven disk simulator on inconsistent input."""


class ReportError(WarlockError):
    """Raised by the analysis/report layer."""


class ServiceError(WarlockError):
    """Raised by the HTTP service layer (:mod:`repro.service`).

    Carries the HTTP ``status`` the front end should answer with — 404 for an
    unknown warehouse, 503 for a saturated request queue, 400 for a malformed
    request body, and so on — so the server maps library errors to wire
    responses in one place.
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status
