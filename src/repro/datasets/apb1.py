"""APB-1-style star schema and query mix.

The APB-1 OLAP Council benchmark (Release II, 1998) models a sales analysis
application over four dimensions — product, customer, time and channel — with a
deep product hierarchy and a large, sparse fact table.  The original WARLOCK
demonstration uses APB-1-based configurations; this module provides a
structurally faithful, scalable stand-in:

* the hierarchy shape and level cardinalities follow the published APB-1
  structure (product code 9000 -> class 900 -> group 300 -> family 75 ->
  line 15 -> division 4; 900 stores under 90 retailers; 24 months under
  8 quarters under 2 years; 9 channels),
* the fact-table size defaults to about 24.9 million rows (the density-0.1
  configuration) and can be scaled up or down with ``scale``.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.errors import SchemaError
from repro.schema import Dimension, FactTable, Level, Measure, StarSchema
from repro.skew import SkewSpec
from repro.workload import DimensionRestriction, QueryClass, QueryMix

__all__ = ["apb1_schema", "apb1_query_mix"]

#: Default fact-table size (rows) for scale 1.0, matching the APB-1
#: density-0.1 configuration of roughly 24.9 million history rows.
APB1_BASE_FACT_ROWS = 24_900_000


def apb1_schema(
    scale: float = 1.0,
    skew: Optional[Dict[str, float]] = None,
    fact_row_size_bytes: int = 64,
) -> StarSchema:
    """Build the APB-1-style star schema.

    Parameters
    ----------
    scale:
        Fact-table scale factor; 1.0 gives ~24.9 M rows.  Dimension
        cardinalities are not scaled (as in APB-1, where density controls the
        fact volume).
    skew:
        Optional mapping from dimension name (``"product"``, ``"customer"``,
        ``"time"``, ``"channel"``) to a Zipf theta applied at the dimension's
        bottom level.
    fact_row_size_bytes:
        Width of a fact row (foreign keys plus the APB-1 measures).
    """
    if not (math.isfinite(scale) and scale > 0):
        raise SchemaError(f"scale must be finite and positive, got {scale}")
    skew = dict(skew or {})
    unknown = set(skew) - {"product", "customer", "time", "channel"}
    if unknown:
        raise SchemaError(f"skew refers to unknown APB-1 dimensions: {sorted(unknown)}")

    def spec_for(name: str) -> SkewSpec:
        return SkewSpec(theta=skew.get(name, 0.0))

    product = Dimension(
        name="product",
        levels=[
            Level("division", 4),
            Level("line", 15),
            Level("family", 75),
            Level("group", 300),
            Level("class", 900),
            Level("code", 9000),
        ],
        skew=spec_for("product"),
        row_size_bytes=96,
    )
    customer = Dimension(
        name="customer",
        levels=[
            Level("retailer", 90),
            Level("store", 900),
        ],
        skew=spec_for("customer"),
        row_size_bytes=80,
    )
    time = Dimension(
        name="time",
        levels=[
            Level("year", 2),
            Level("quarter", 8),
            Level("month", 24),
        ],
        skew=spec_for("time"),
        row_size_bytes=32,
    )
    channel = Dimension(
        name="channel",
        levels=[Level("channel", 9)],
        skew=spec_for("channel"),
        row_size_bytes=32,
    )

    fact_rows = max(1, int(round(APB1_BASE_FACT_ROWS * scale)))
    fact = FactTable(
        name="sales_history",
        row_count=fact_rows,
        row_size_bytes=fact_row_size_bytes,
        dimension_names=("product", "customer", "time", "channel"),
        measures=(
            Measure("units_sold", 8),
            Measure("dollar_sales", 8),
            Measure("cost", 8),
        ),
    )
    return StarSchema(
        name=f"apb1(scale={scale:g})",
        dimensions=(product, customer, time, channel),
        fact_tables=(fact,),
    )


def apb1_query_mix() -> QueryMix:
    """The weighted query-class mix used by the APB-1-style experiments.

    The classes follow the spirit of the APB-1 query set: channel/product/time
    roll-ups at several hierarchy levels, customer reporting, and a couple of
    fine-grained drill-downs, with weights reflecting a reporting-heavy
    workload.
    """
    classes = [
        QueryClass(
            name="Q1-month-group",
            restrictions=[
                DimensionRestriction("time", "month"),
                DimensionRestriction("product", "group"),
            ],
            weight=20,
        ),
        QueryClass(
            name="Q2-quarter-retailer",
            restrictions=[
                DimensionRestriction("time", "quarter"),
                DimensionRestriction("customer", "retailer"),
            ],
            weight=15,
        ),
        QueryClass(
            name="Q3-month-class-channel",
            restrictions=[
                DimensionRestriction("time", "month"),
                DimensionRestriction("product", "class"),
                DimensionRestriction("channel", "channel"),
            ],
            weight=15,
        ),
        QueryClass(
            name="Q4-month-store",
            restrictions=[
                DimensionRestriction("time", "month"),
                DimensionRestriction("customer", "store"),
            ],
            weight=10,
        ),
        QueryClass(
            name="Q5-year-division",
            restrictions=[
                DimensionRestriction("time", "year"),
                DimensionRestriction("product", "division"),
            ],
            weight=10,
        ),
        QueryClass(
            name="Q6-month-code",
            restrictions=[
                DimensionRestriction("time", "month"),
                DimensionRestriction("product", "code"),
            ],
            weight=10,
        ),
        QueryClass(
            name="Q7-channel-rollup",
            restrictions=[DimensionRestriction("channel", "channel")],
            weight=5,
        ),
        QueryClass(
            name="Q8-year-report",
            restrictions=[DimensionRestriction("time", "year")],
            weight=15,
        ),
    ]
    return QueryMix(classes)
