"""The record a query evaluation emits.

:class:`WindowResult` lives apart from :mod:`repro.streaming.engine` so
the service layer, which builds and ships these records, does not load
the execution loops; the engine re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, TypeVar

R = TypeVar("R")


@dataclass(frozen=True, slots=True)
class WindowResult(Generic[R]):
    """One query evaluation.

    ``index`` numbers evaluations from 0; ``window_count`` is the number of
    (post-filter) elements the evaluation saw; ``end`` is the position (for
    count windows) or timestamp (for time windows) of the window's end.
    """

    index: int
    window_count: int
    end: float
    result: R
