"""Query deadlines and cooperative cancellation.

``Session.execute(timeout=...)`` arms a per-query deadline for the duration
of the statement via :func:`query_deadline`.  Execution is single-threaded,
so cancellation is *cooperative*: long-running stages call
:func:`deadline_check` at natural yield points — the executor before each
operator, the access paths before each collect and the materialized-view
refresh before each unit recompute.

The contract on expiry is strict: :class:`~repro.errors.QueryTimeoutError`
propagates before any :class:`~repro.engine.timing.CostBreakdown` is handed
to the caller, so a cancelled query bills nothing.

Deadlines nest: an inner ``query_deadline`` can only tighten the deadline an
outer one armed, never extend it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import QueryTimeoutError

__all__ = [
    "deadline_check",
    "query_deadline",
]

#: The armed ``(monotonic deadline, requested timeout seconds)``, or ``None``.
_DEADLINE: Optional[tuple] = None


@contextmanager
def query_deadline(timeout_s: Optional[float]) -> Iterator[None]:
    """Arm a deadline *timeout_s* seconds from now for the ``with`` body.

    ``None`` is a no-op (no deadline).  Nested deadlines only ever tighten:
    the effective deadline is the minimum of the armed ones.
    """
    if timeout_s is None:
        yield
        return
    global _DEADLINE
    previous = _DEADLINE
    candidate = (time.monotonic() + max(0.0, timeout_s), timeout_s)
    if previous is None or candidate[0] < previous[0]:
        _DEADLINE = candidate
    try:
        yield
    finally:
        _DEADLINE = previous


def deadline_check() -> None:
    """Raise :class:`QueryTimeoutError` if the armed deadline has expired."""
    if _DEADLINE is not None and time.monotonic() >= _DEADLINE[0]:
        raise QueryTimeoutError(
            f"query exceeded its {_DEADLINE[1]:.3f}s deadline",
            timeout_s=_DEADLINE[1],
        )
