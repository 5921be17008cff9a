"""Validation of the PSDSPARSE_THREADS setting and the threads= argument.

Scoring is serial, so the resolved count is not used for computation; it is
still resolved (0 means the cpu count, unset means 1) so that a negative or
unparsable setting raises DomainError rather than passing silently.
"""

from __future__ import annotations

import os

from .errors import DomainError

ENV_VAR = "PSDSPARSE_THREADS"


def thread_count(explicit: int | None = None) -> int:
    """Resolve the thread setting from an explicit value or the environment."""
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
