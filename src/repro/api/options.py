"""Unified engine options: one validated value object for the execution knobs.

Every entry point — :class:`~repro.api.AdvisorSession`, the six tuning
studies, the CLI subcommands, the HTTP service — takes one
:class:`EngineOptions` instead of ad-hoc ``vectorize`` / ``cache`` /
``cache_dir`` keyword arguments.  The frozen dataclass is
validated once, compared by value, hashable, JSON round-trippable, and
threaded verbatim from the API façade down to
:class:`~repro.engine.EvaluationEngine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional

from repro.errors import AdvisorError

__all__ = ["EngineOptions"]


@dataclass(frozen=True)
class EngineOptions:
    """Execution options of the candidate-evaluation engine.

    Parameters
    ----------
    vectorize:
        ``True`` (default) evaluates the cost sweep batched: whole chunks of
        candidates as (candidate × class) numpy arrays.
        ``False`` (CLI ``--no-vectorize``) runs the scalar reference oracle.
        Results are bit-identical either way.
    cache:
        ``True`` (default) memoizes access structures and whole candidate
        evaluations in an :class:`~repro.engine.EvaluationCache`; ``False``
        disables memoization entirely (the benchmark's seed-equivalent
        baseline).  To *share* a concrete cache instance across engines or
        sessions, pass it via the ``cache=`` parameter of the respective
        constructor — the instance is a collaboration handle, not an option.
    cache_dir:
        Directory of a persistent cache store (CLI ``--cache-dir``,
        environment ``WARLOCK_CACHE_DIR``).  When set, the cache warm-starts
        from disk and — subject to ``persist`` — spills back after every
        sweep.  Requires ``cache=True``.
    persist:
        ``True`` (default) spills new cache entries back to ``cache_dir``
        after every sweep; ``False`` treats the store as read-only: the run
        still warm-starts from it but never writes back.  Meaningless (and
        ignored) without a ``cache_dir``.
    cache_max_mb:
        Byte budget of the persistent store in megabytes (CLI
        ``--cache-max-mb``).  When set, every save garbage-collects the store
        directory down to the budget, evicting the least-recently-used
        entries first; ``None`` (default) keeps the store unbounded.
        Requires ``cache_dir``.
    """

    vectorize: bool = True
    cache: bool = True
    cache_dir: Optional[str] = None
    persist: bool = True
    cache_max_mb: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("vectorize", "cache", "persist"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise AdvisorError(
                    f"EngineOptions.{name} must be a bool, got {value!r}"
                )
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise AdvisorError(
                f"EngineOptions.cache_dir must be a string path or None, "
                f"got {self.cache_dir!r}"
            )
        if self.cache_dir == "":
            raise AdvisorError("EngineOptions.cache_dir must not be empty")
        if self.cache_dir is not None and not self.cache:
            raise AdvisorError(
                "EngineOptions.cache_dir requires cache=True: a persistent "
                "store without an in-memory cache has nothing to fill or spill"
            )
        if self.cache_max_mb is not None:
            # The engine budgets int(cache_max_mb * 1024 * 1024) bytes, so a
            # float whose byte count overflows to inf is as invalid as inf
            # (an int budget is exact and always converts).
            if (
                isinstance(self.cache_max_mb, bool)
                or not isinstance(self.cache_max_mb, (int, float))
                or not self.cache_max_mb > 0
                or (
                    isinstance(self.cache_max_mb, float)
                    and not math.isfinite(self.cache_max_mb * 1024 * 1024)
                )
            ):
                raise AdvisorError(
                    f"EngineOptions.cache_max_mb must be a positive number "
                    f"with a finite byte count, or None, got {self.cache_max_mb!r}"
                )
            if self.cache_dir is None:
                raise AdvisorError(
                    "EngineOptions.cache_max_mb requires cache_dir: a byte "
                    "budget without a persistent store bounds nothing"
                )

    # -- derivation -------------------------------------------------------------

    def replace(self, **changes: Any) -> "EngineOptions":
        """A copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready, round-trips through :meth:`from_dict`)."""
        return {
            "vectorize": self.vectorize,
            "cache": self.cache,
            "cache_dir": self.cache_dir,
            "persist": self.persist,
            "cache_max_mb": self.cache_max_mb,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "EngineOptions":
        """Build options from a mapping, rejecting unknown keys.

        This is the parser of the JSON config file's ``"engine"`` block; a
        typo like ``"vectorise"`` must be an error, not a silently ignored default.
        """
        if not isinstance(raw, Mapping):
            raise AdvisorError(
                f"engine options must be a mapping, got {type(raw).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise AdvisorError(
                f"unknown engine option(s) {', '.join(map(repr, unknown))}; "
                f"known options: {', '.join(sorted(known))}"
            )
        return cls(**dict(raw))

    def describe(self) -> str:
        """One-line summary used by logs and the CLI."""
        parts = ["vectorized" if self.vectorize else "scalar"]
        if not self.cache:
            parts.append("uncached")
        elif self.cache_dir:
            parts.append(
                f"store={self.cache_dir}" + ("" if self.persist else " (read-only)")
            )
            if self.cache_max_mb is not None:
                parts.append(f"budget={self.cache_max_mb:g}MB")
        return ", ".join(parts)
