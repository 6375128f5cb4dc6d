"""Work records: what a run computed, counted by the code that does it.

A record maps each name to the values added under it, in order.  It exists
only while a caller holds it open (``with stats.recording() as rec:``); a
nested one shuts out the outer until it closes, and with none open ``add``
keeps nothing.  Nothing runs specbound on two threads, so a module global
holds the open record.  The README's "Tests" section lists the names.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Any, DefaultDict, Iterator, List, Optional

_open: Optional[DefaultDict[str, List[Any]]] = None


@contextmanager
def recording() -> Iterator[DefaultDict[str, List[Any]]]:
    """A new record, open for the block; the outer one, if any, after it."""
    global _open
    outer, _open = _open, defaultdict(list)
    try:
        yield _open
    finally:
        _open = outer


def add(name: str, value: Any = 1) -> None:
    """Add ``value`` under ``name`` to the open record, if there is one."""
    if _open is not None:
        _open[name].append(value)
