"""Pluggable storage backends for the inference cache.

See :mod:`repro.engine.backends.base` for the protocol and
docs/distributed.md for the deployment picture.  The HTTP daemon lives
in :mod:`repro.engine.backends.server` and is imported on demand (it
drags :mod:`http.server` in; nothing on the ``repro check`` hot path
needs it).
"""

from repro._lazy import lazy_exports
from repro.engine.backends.base import CacheBackend, RemoteUnavailable
from repro.engine.backends.local import DEFAULT_LOCK_TIMEOUT, LocalDirBackend
from repro.engine.backends.tiered import TieredBackend

# The HTTP client (urllib, http.client, ssl) loads only when a remote
# tier is configured.
__getattr__, __dir__ = lazy_exports(
    __name__, {"repro.engine.backends.remote": ("RemoteHTTPBackend",)}
)

__all__ = [
    "CacheBackend",
    "DEFAULT_LOCK_TIMEOUT",
    "LocalDirBackend",
    "RemoteHTTPBackend",
    "RemoteUnavailable",
    "TieredBackend",
]
