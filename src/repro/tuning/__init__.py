"""Interactive fine-tuning studies (§3.3 of the paper).

WARLOCK "provides several options to facilitate interactive fine tuning: disk
parameters, query load specifics and bitmap configurations can be interactively
adapted to examine the performance variations they imply."  This package
defines each of those what-if studies once, as a :class:`Study`, and runs
every study through one loop, :func:`run_study`, which re-evaluates a
fragmentation under each setting and returns a :class:`TuningStudy` — a small
result table the analysis layer (or the CLI / a notebook) can render directly.
"""

from repro.tuning.studies import (
    STUDIES,
    Study,
    TuningStudy,
    architecture_study,
    bitmap_exclusion_study,
    disk_count_study,
    prefetch_study,
    requested_study,
    run_study,
    skew_study,
    workload_weight_study,
)

__all__ = [
    "TuningStudy",
    "Study",
    "STUDIES",
    "run_study",
    "requested_study",
    "disk_count_study",
    "architecture_study",
    "prefetch_study",
    "bitmap_exclusion_study",
    "skew_study",
    "workload_weight_study",
]
