"""Once-per-process deprecation warnings.

The API redesign keeps the pre-facade entry points working behind thin
shims (``Broker(engine="...")``, the ``*_spec()`` workload callables).
Each shim warns through :func:`warn_once`, so a process that still uses a
legacy entry point sees exactly one :class:`DeprecationWarning` per shim
instead of one per call — heavy-traffic pipelines must not pay a warning
(or a warning-registry lookup churn) per published event.

Tests reset the bookkeeping via :func:`reset_warnings` to assert the
exactly-once contract.
"""

from __future__ import annotations

import warnings

__all__ = ["reset_warnings", "warn_once", "warned_keys"]

_WARNED: set[str] = set()


def warn_once(key: str, message: str, *, stacklevel: int = 3) -> bool:
    """Emit ``message`` as a :class:`DeprecationWarning` once per process.

    ``key`` identifies the shim (e.g. ``"repro.service.broker.Broker.engine"``);
    later calls with the same key are silent.  Returns ``True`` when the
    warning was actually emitted.
    """
    if key in _WARNED:
        return False
    _WARNED.add(key)
    warnings.warn(message, DeprecationWarning, stacklevel=stacklevel)
    return True


def warned_keys() -> frozenset[str]:
    """Return the shim keys that have warned so far (for diagnostics)."""
    return frozenset(_WARNED)


def reset_warnings(*keys: str) -> None:
    """Forget emitted warnings (all of them, or just ``keys``) — test hook."""
    if keys:
        _WARNED.difference_update(keys)
    else:
        _WARNED.clear()
