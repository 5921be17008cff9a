"""Worker-count resolution for optional intra-step parallelism.

PSDSPARSE_THREADS caps parallelism: 0 means auto (cpu count), unset means 1.
A negative or unparsable setting raises DomainError rather than falling back.
Results never depend on the worker count; it only affects scheduling.
"""

from __future__ import annotations

import os

from .errors import DomainError

ENV_VAR = "PSDSPARSE_THREADS"


def thread_count(explicit: int | None = None) -> int:
    """Resolve the worker count from an explicit value or the environment."""
    if explicit is None:
        raw = os.environ.get(ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            explicit = int(raw)
        except ValueError:
            raise DomainError(f"{ENV_VAR} must be a nonnegative integer, got {raw!r}") from None
        if explicit < 0:
            raise DomainError(f"{ENV_VAR} must be a nonnegative integer, got {raw!r}")
    elif explicit < 0:
        raise DomainError(f"thread count must be nonnegative, got {explicit!r}")
    if explicit == 0:
        return os.cpu_count() or 1
    return explicit
