"""Columnar workload compilation: the class axis as numpy vectors.

The batched cost path evaluates one fragmentation candidate against *all*
query classes of the mix at once, as numpy vectors over the class axis,
instead of the ~40 scalar passes the per-class estimation performs.  For that
it needs the workload in columnar form: per restricted dimension, one
class-length column per restriction property (value counts, level depths,
level cardinalities, selectivities, bitmap availability).

:class:`ClassMatrix` is that compilation.  It depends only on the schema, the
query mix's *structure* (restrictions, not weights — weights travel alongside
as workload shares) and the bitmap scheme, so one matrix serves every
candidate of a sweep and travels inside the engine context.  Everything is derived with the exact same scalar arithmetic the
per-class path uses (e.g. class selectivities multiply restriction
selectivities in restriction order), keeping the batched path bit-identical.

The bitmap scheme is duck-typed (``index_for(dimension, level)`` returning an
object with ``bits_read_per_row(value_count)`` or ``None``) so this module
does not import :mod:`repro.bitmap`, which itself imports the workload
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from repro.schema import StarSchema
from repro.workload.mix import QueryMix

__all__ = ["ClassMatrix"]

#: ``level_depth`` / ``slot_dimension`` entry marking "no restriction".
NO_RESTRICTION = -1


@dataclass(frozen=True)
class ClassMatrix:
    """Columnar view of a query mix against a schema and a bitmap scheme.

    Rows of the 2-D arrays are dimensions (``dimension_names`` order), columns
    are query classes (mix order).  Entries of unrestricted (dimension, class)
    pairs are zero/``NO_RESTRICTION`` and masked off by ``restricted``.
    """

    #: Query class names, in mix order (the class axis).
    query_names: Tuple[str, ...]
    #: Every dimension restricted by at least one class (sorted by name).
    dimension_names: Tuple[str, ...]
    #: Normalized workload share per class (mix order), as floats.
    shares: Tuple[float, ...]
    #: Per-class overall selectivity, computed by the scalar code path.
    selectivities: Tuple[float, ...]
    #: (dimensions x classes) bool: class restricts dimension.
    restricted: np.ndarray
    #: (dimensions x classes) float64: values selected by the restriction.
    value_counts: np.ndarray
    #: (dimensions x classes) int64: hierarchy depth of the restriction level
    #: (0 = coarsest), ``NO_RESTRICTION`` where unrestricted.
    level_depths: np.ndarray
    #: (dimensions x classes) float64: cardinality of the restriction level.
    level_cardinalities: np.ndarray
    #: (dimensions x classes) float64: restriction selectivity
    #: (``value_count / level_cardinality``).
    restriction_selectivities: np.ndarray
    #: Per dimension, per class: name of the restricted level ("" where
    #: unrestricted).  Tuple-of-tuples because numpy string arrays buy nothing
    #: here — the names are only read when materializing bitmap attributes.
    level_names: Tuple[Tuple[str, ...], ...]
    #: (dimensions x classes) bool: a bitmap index exists on the restricted
    #: attribute.
    has_bitmap: np.ndarray
    #: (dimensions x classes) float64: bits read per fact row to evaluate the
    #: restriction off its bitmap index (0 where no index exists).
    bitmap_bits_read: np.ndarray
    #: (classes x max_restrictions) int64: dimension row index of each class's
    #: restrictions in *restriction order*, ``NO_RESTRICTION``-padded.  This
    #: preserves the per-class residual evaluation order of the scalar path.
    slot_dimensions: np.ndarray
    #: Weight-independent content fingerprint (cache key component).
    signature: str

    @property
    def num_classes(self) -> int:
        """Number of query classes (length of the class axis)."""
        return len(self.query_names)

    @property
    def num_dimensions(self) -> int:
        """Number of restricted dimensions (rows of the columnar arrays)."""
        return len(self.dimension_names)

    @cached_property
    def attribute_table(self) -> np.ndarray:
        """(dimensions x classes) object array of ``(dimension, level)`` pairs.

        Built once per matrix, so the batched kernels gather the bitmap
        attributes of many (candidate, class) pairs with one fancy index
        instead of assembling a tuple per pair.  Unrestricted entries hold
        ``(dimension, "")`` and are never read.
        """
        table = np.empty((self.num_dimensions, self.num_classes), dtype=object)
        for row, name in enumerate(self.dimension_names):
            for column, level in enumerate(self.level_names[row]):
                table[row, column] = (name, level)
        return table

    @classmethod
    def compile(
        cls,
        schema: StarSchema,
        workload: QueryMix,
        bitmap_scheme,
        fact_table: Optional[str] = None,
    ) -> "ClassMatrix":
        """Compile ``workload`` into columnar form.

        Parameters
        ----------
        schema:
            Star schema the workload was validated against.
        workload:
            The query mix; classes become the columns, in mix order.
        bitmap_scheme:
            Bitmap indexes available for residual filtering (duck-typed:
            ``index_for(dimension, level)``).
        fact_table:
            Unused for the columns themselves (restrictions are per
            dimension), accepted for symmetry with the engine context.
        """
        items = workload.weighted_items()
        query_names = tuple(query.name for query, _ in items)
        shares = tuple(float(share) for _, share in items)
        # Scalar code path for the per-class selectivity: identical product
        # order, identical floats.
        selectivities = tuple(query.selectivity(schema) for query, _ in items)

        dimension_names = tuple(
            sorted({r.dimension for query, _ in items for r in query.restrictions})
        )
        dim_row = {name: row for row, name in enumerate(dimension_names)}
        num_classes = len(query_names)
        num_dims = len(dimension_names)
        max_slots = max(
            (len(query.restrictions) for query, _ in items), default=0
        )

        restricted = np.zeros((num_dims, num_classes), dtype=bool)
        value_counts = np.zeros((num_dims, num_classes), dtype=np.float64)
        level_depths = np.full((num_dims, num_classes), NO_RESTRICTION, dtype=np.int64)
        level_cardinalities = np.zeros((num_dims, num_classes), dtype=np.float64)
        restriction_selectivities = np.zeros((num_dims, num_classes), dtype=np.float64)
        has_bitmap = np.zeros((num_dims, num_classes), dtype=bool)
        bitmap_bits_read = np.zeros((num_dims, num_classes), dtype=np.float64)
        level_name_rows = [["" for _ in range(num_classes)] for _ in range(num_dims)]
        slot_dimensions = np.full(
            (num_classes, max_slots), NO_RESTRICTION, dtype=np.int64
        )

        signature_parts = []
        for column, (query, _) in enumerate(items):
            signature_parts.append(query.name)
            signature_parts.append(repr(query.restrictions))
            for slot, restriction in enumerate(query.restrictions):
                row = dim_row[restriction.dimension]
                slot_dimensions[column, slot] = row
                dimension = schema.dimension(restriction.dimension)
                restricted[row, column] = True
                value_counts[row, column] = float(restriction.value_count)
                level_name_rows[row][column] = restriction.level
                level_depths[row, column] = dimension.level_index(restriction.level)
                level_cardinalities[row, column] = float(
                    dimension.level(restriction.level).cardinality
                )
                # Scalar code path (DimensionRestriction.selectivity): exact.
                restriction_selectivities[row, column] = restriction.selectivity(
                    schema
                )
                index = bitmap_scheme.index_for(
                    restriction.dimension, restriction.level
                )
                if index is not None:
                    has_bitmap[row, column] = True
                    bitmap_bits_read[row, column] = float(
                        index.bits_read_per_row(restriction.value_count)
                    )

        # Weight-independent fingerprint: queries' structure plus the bitmap
        # scheme (reweighted mixes reuse cached structure batches, exactly as
        # the scalar structure cache keys on weight-independent signatures).
        from repro.engine.signature import object_signature, stable_digest

        signature = stable_digest(
            "ClassMatrix",
            object_signature(schema),
            object_signature(bitmap_scheme),
            *signature_parts,
        )

        return cls(
            query_names=query_names,
            dimension_names=dimension_names,
            shares=shares,
            selectivities=selectivities,
            restricted=restricted,
            value_counts=value_counts,
            level_depths=level_depths,
            level_cardinalities=level_cardinalities,
            restriction_selectivities=restriction_selectivities,
            level_names=tuple(tuple(row) for row in level_name_rows),
            has_bitmap=has_bitmap,
            bitmap_bits_read=bitmap_bits_read,
            slot_dimensions=slot_dimensions,
            signature=signature,
        )

    def describe(self) -> str:
        """One-line summary used by logs and tests."""
        return (
            f"class matrix: {self.num_classes} classes x "
            f"{self.num_dimensions} restricted dimensions"
        )
