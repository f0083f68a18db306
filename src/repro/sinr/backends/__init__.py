"""Pluggable SINR physics backends.

Every backend implements the :class:`~repro.sinr.backends.base.PhysicsBackend`
protocol -- a whole CSR schedule via ``receptions_table()``, which the
base-class ``receptions()`` wraps for one round -- and they are
interchangeable everywhere a network or simulator needs physics.  Selection is by name (``"dense"``, ``"lazy"`` or
``"spatial"``) through :func:`make_backend`, threaded from
``WirelessNetwork(backend=...)``, the deployment generators, and the CLI's
``--backend`` option.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..model import SINRParameters
from .base import PhysicsBackend, Reception
from .dense import DenseMatrixBackend
from .lazy import LazyBlockBackend
from .spatial import SpatialGridBackend

#: Name -> backend class registry used by :func:`make_backend` and the CLI.
BACKENDS = {
    "dense": DenseMatrixBackend,
    "lazy": LazyBlockBackend,
    "spatial": SpatialGridBackend,
}


def make_backend(
    backend: Union[str, PhysicsBackend],
    positions: np.ndarray,
    params: SINRParameters,
) -> PhysicsBackend:
    """Build (or pass through) a physics backend for a placement.

    ``backend`` is a registry name (``"dense"``, ``"lazy"``, ``"spatial"``)
    or an already constructed :class:`PhysicsBackend`, whose size must match
    ``positions``.  Backends take no options: the name fully determines the
    physics evaluation.
    """
    if isinstance(backend, PhysicsBackend):
        if backend.size != len(positions):
            raise ValueError(
                f"backend holds {backend.size} nodes but the placement has {len(positions)}"
            )
        return backend
    try:
        cls = BACKENDS[backend]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown physics backend {backend!r}; available: {sorted(BACKENDS)}"
        ) from None
    return cls(np.asarray(positions, dtype=float), params)


__all__ = [
    "BACKENDS",
    "DenseMatrixBackend",
    "LazyBlockBackend",
    "PhysicsBackend",
    "Reception",
    "SpatialGridBackend",
    "make_backend",
]
