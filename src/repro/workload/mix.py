"""Weighted query mixes.

The prediction layer evaluates fragmentation candidates against a
*representative set of queries*: the query mix.  The mix normalizes the class
weights to workload shares and offers the aggregation helpers the cost model
and the advisor need (weighted sums, per-class iteration, dimension usage
statistics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from repro.errors import WorkloadError
from repro.schema import StarSchema
from repro.workload.query import QueryClass

__all__ = ["QueryMix"]


@dataclass(frozen=True)
class QueryMix:
    """A normalized, weighted collection of query classes."""

    classes: Tuple[QueryClass, ...]

    def __init__(self, classes: Sequence[QueryClass]) -> None:
        classes = tuple(classes)
        if not classes:
            raise WorkloadError("a query mix needs at least one query class")
        names = [qc.name for qc in classes]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate query class names in mix: {names}")
        object.__setattr__(self, "classes", classes)

    # -- basic accessors ------------------------------------------------------

    def __iter__(self) -> Iterator[QueryClass]:
        return iter(self.classes)

    def __len__(self) -> int:
        return len(self.classes)

    def query_class(self, name: str) -> QueryClass:
        """Return the class called ``name``."""
        for query_class in self.classes:
            if query_class.name == name:
                return query_class
        raise WorkloadError(
            f"query mix has no class {name!r}; known classes: "
            f"{', '.join(qc.name for qc in self.classes)}"
        )

    @property
    def total_weight(self) -> float:
        """Sum of the raw class weights."""
        return sum(qc.weight for qc in self.classes)

    def share(self, query_class: QueryClass) -> float:
        """Normalized workload share of ``query_class`` (shares sum to 1)."""
        return query_class.weight / self.total_weight

    def shares(self) -> Dict[str, float]:
        """Mapping from class name to normalized workload share."""
        return {qc.name: self.share(qc) for qc in self.classes}

    # -- aggregation helpers ----------------------------------------------------

    def weighted_sum(self, metric: Callable[[QueryClass], float]) -> float:
        """Workload-share-weighted sum of ``metric`` over the classes."""
        return sum(self.share(qc) * metric(qc) for qc in self.classes)

    def weighted_items(self) -> List[Tuple[QueryClass, float]]:
        """List of ``(query_class, share)`` pairs."""
        return [(qc, self.share(qc)) for qc in self.classes]

    def dimension_access_shares(self) -> Dict[str, float]:
        """Workload share that restricts each dimension.

        This is the statistic the fragmentation-candidate enumeration uses to
        prioritize dimensions frequently referenced by the workload.
        """
        shares: Dict[str, float] = {}
        for query_class, share in self.weighted_items():
            for dimension in query_class.accessed_dimensions:
                shares[dimension] = shares.get(dimension, 0.0) + share
        return shares

    def level_access_shares(self) -> Dict[Tuple[str, str], float]:
        """Workload share restricting each ``(dimension, level)`` pair."""
        shares: Dict[Tuple[str, str], float] = {}
        for query_class, share in self.weighted_items():
            for restriction in query_class.restrictions:
                key = (restriction.dimension, restriction.level)
                shares[key] = shares.get(key, 0.0) + share
        return shares

    # -- validation & transformation ------------------------------------------

    def validate(self, schema: StarSchema) -> None:
        """Validate every class against ``schema``."""
        for query_class in self.classes:
            query_class.validate(schema)

    def reweighted(self, weights: Dict[str, float]) -> "QueryMix":
        """A copy of the mix with new weights (by class name).

        Classes absent from ``weights`` keep their current weight; a name the
        mix does not have is a :class:`~repro.errors.WorkloadError`, like
        :meth:`without`'s.  This is the hook for the interactive fine-tuning
        the paper describes ("query load specifics can be interactively
        adapted").
        """
        known = {qc.name for qc in self.classes}
        missing = [name for name in weights if name not in known]
        if missing:
            raise WorkloadError(f"cannot reweight unknown query classes: {missing}")
        new_classes = []
        for query_class in self.classes:
            weight = weights.get(query_class.name, query_class.weight)
            new_classes.append(
                QueryClass(
                    name=query_class.name,
                    restrictions=query_class.restrictions,
                    weight=weight,
                    fact_table=query_class.fact_table,
                )
            )
        return QueryMix(new_classes)

    def without(self, *names: str) -> "QueryMix":
        """A copy of the mix with the named classes removed."""
        missing = [n for n in names if n not in {qc.name for qc in self.classes}]
        if missing:
            raise WorkloadError(f"cannot remove unknown query classes: {missing}")
        remaining = [qc for qc in self.classes if qc.name not in set(names)]
        if not remaining:
            raise WorkloadError("removing these classes would empty the query mix")
        return QueryMix(remaining)

    def describe(self) -> str:
        """Multi-line human readable summary (one line per class with its share)."""
        lines = ["Query mix:"]
        for query_class, share in self.weighted_items():
            lines.append(f"  {share:6.1%}  {query_class.describe()}")
        return "\n".join(lines)
