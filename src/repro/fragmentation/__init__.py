"""Multi-dimensional hierarchical fragmentation (MDHF), §2 of the paper.

A fragmentation is defined by selecting a set of *fragmentation attributes*
from the dimensional attributes, at most one per dimension.  All fact-table
rows corresponding to a single value combination of the fragmentation
attributes form one fragment.  One-dimensional fragmentations are the special
case of a single fragmentation attribute.  Bitmap fragmentation exactly follows
the fact-table fragmentation.
"""

from repro.fragmentation.spec import FragmentationAttribute, FragmentationSpec
from repro.fragmentation.enumeration import (
    count_point_fragmentations,
    enumerate_point_fragmentations,
)
from repro.fragmentation.layout import (
    FragmentationLayout,
    build_layout,
    check_fragment_limit,
    dimension_row_shares,
)

__all__ = [
    "FragmentationAttribute",
    "FragmentationSpec",
    "enumerate_point_fragmentations",
    "count_point_fragmentations",
    "FragmentationLayout",
    "build_layout",
    "check_fragment_limit",
    "dimension_row_shares",
]
