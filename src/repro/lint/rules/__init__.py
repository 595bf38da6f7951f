"""Rule modules register themselves on import (see ``framework.RULES``)."""

from repro.lint.rules import (  # noqa: F401
    boundary_serialization,
    determinism_taint,
    layering,
    lock_discipline,
    numeric_determinism,
    wire_contract,
)
