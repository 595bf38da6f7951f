"""Retail warehouse schema and query mix.

A second, independent configuration in the spirit of the retail/grocery data
warehouses the paper's introduction motivates: a daily sales fact table over
date, store, item and promotion dimensions, with a skewed item dimension (a
small fraction of the items generates most of the sales).  Used by the
domain-specific example and several benchmarks.
"""

from __future__ import annotations

import math

from repro.errors import SchemaError
from repro.schema import Dimension, FactTable, Level, Measure, StarSchema
from repro.skew import SkewSpec
from repro.workload import DimensionRestriction, QueryClass, QueryMix

__all__ = ["retail_schema", "retail_query_mix"]

#: Default fact-table size (rows) for scale 1.0: one year of daily item/store sales.
RETAIL_BASE_FACT_ROWS = 50_000_000


def retail_schema(
    scale: float = 1.0,
    item_skew_theta: float = 0.8,
    store_skew_theta: float = 0.3,
) -> StarSchema:
    """Build the retail star schema.

    Parameters
    ----------
    scale:
        Fact-table scale factor; 1.0 gives 50 M rows.
    item_skew_theta:
        Zipf theta of the item dimension (defaults to a strongly skewed 0.8 —
        best-sellers dominate).
    store_skew_theta:
        Zipf theta of the store dimension (defaults to a mild 0.3).
    """
    if not (math.isfinite(scale) and scale > 0):
        raise SchemaError(f"scale must be finite and positive, got {scale}")

    date = Dimension(
        name="date",
        levels=[
            Level("year", 3),
            Level("quarter", 12),
            Level("month", 36),
            Level("week", 156),
            Level("day", 1092),
        ],
        row_size_bytes=40,
    )
    store = Dimension(
        name="store",
        levels=[
            Level("region", 8),
            Level("district", 40),
            Level("store", 400),
        ],
        skew=SkewSpec(theta=store_skew_theta),
        row_size_bytes=120,
    )
    item = Dimension(
        name="item",
        levels=[
            Level("department", 20),
            Level("category", 200),
            Level("brand", 2000),
            Level("sku", 40000),
        ],
        skew=SkewSpec(theta=item_skew_theta),
        row_size_bytes=160,
    )
    promotion = Dimension(
        name="promotion",
        levels=[
            Level("promo_type", 5),
            Level("promotion", 300),
        ],
        row_size_bytes=80,
    )

    fact = FactTable(
        name="daily_sales",
        row_count=max(1, int(round(RETAIL_BASE_FACT_ROWS * scale))),
        row_size_bytes=56,
        dimension_names=("date", "store", "item", "promotion"),
        measures=(
            Measure("quantity", 4),
            Measure("revenue", 8),
            Measure("discount", 8),
        ),
    )
    return StarSchema(
        name=f"retail(scale={scale:g})",
        dimensions=(date, store, item, promotion),
        fact_tables=(fact,),
    )


def retail_query_mix() -> QueryMix:
    """Reporting-plus-drill-down mix for the retail schema."""
    classes = [
        QueryClass(
            name="R1-monthly-category",
            restrictions=[
                DimensionRestriction("date", "month"),
                DimensionRestriction("item", "category"),
            ],
            weight=25,
        ),
        QueryClass(
            name="R2-weekly-region",
            restrictions=[
                DimensionRestriction("date", "week"),
                DimensionRestriction("store", "region"),
            ],
            weight=20,
        ),
        QueryClass(
            name="R3-promo-effect",
            restrictions=[
                DimensionRestriction("promotion", "promo_type"),
                DimensionRestriction("date", "quarter"),
            ],
            weight=10,
        ),
        QueryClass(
            name="R4-store-month",
            restrictions=[
                DimensionRestriction("store", "store"),
                DimensionRestriction("date", "month"),
            ],
            weight=15,
        ),
        QueryClass(
            name="R5-sku-tracking",
            restrictions=[
                DimensionRestriction("item", "sku"),
                DimensionRestriction("date", "week"),
            ],
            weight=10,
        ),
        QueryClass(
            name="R6-department-year",
            restrictions=[
                DimensionRestriction("item", "department"),
                DimensionRestriction("date", "year"),
            ],
            weight=10,
        ),
        QueryClass(
            name="R7-district-quarter",
            restrictions=[
                DimensionRestriction("store", "district"),
                DimensionRestriction("date", "quarter"),
            ],
            weight=10,
        ),
    ]
    return QueryMix(classes)
