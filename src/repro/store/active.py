"""Ambient store binding for the experiment layer.

The figure modules call :func:`~repro.experiments.sweeps.padding_sweep`
and friends without knowing about storage.  Rather than threading a
``store=`` parameter through every figure, the query layer binds the
store ambiently for the duration of a run: the sweep machinery asks
:func:`get_active_store` and, when one is bound, serves store hits and
persists fresh results — every existing experiment becomes an
incremental job without touching its module.

The binding is a :class:`contextvars.ContextVar`, so it is safe under
threads (each thread sees the binding of the context that spawned it)
and never leaks across unrelated runs.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.store import CampaignStore

__all__ = ["get_active_store", "use_store"]

_ACTIVE_STORE: ContextVar["CampaignStore | None"] = ContextVar(
    "repro_active_store", default=None
)


def get_active_store() -> "CampaignStore | None":
    """The store bound by the innermost :func:`use_store`, if any."""
    return _ACTIVE_STORE.get()


@contextlib.contextmanager
def use_store(store: "CampaignStore | None") -> Iterator["CampaignStore | None"]:
    """Bind ``store`` as the ambient campaign store for the block.

    ``None`` explicitly unbinds (useful to fence a sub-computation off
    from an outer binding).  The store's lifetime stays with the
    caller — leaving the block restores the previous binding without
    closing anything.
    """
    token = _ACTIVE_STORE.set(store)
    try:
        yield store
    finally:
        _ACTIVE_STORE.reset(token)
