"""Deployment generators: node placements used by tests, examples and benches.

The paper's algorithms are analysed for arbitrary placements on the plane; the
benchmark harness needs concrete, reproducible families of placements that
exercise the regimes the paper reasons about:

* uniformly random placements in a square (generic multi-hop networks),
* grid placements (worst-case regular density),
* Gaussian "hotspot" placements (dense clusters separated in space -- the
  motivating sensor-field scenario),
* connected line / strip placements with controlled hop diameter ``D`` and
  density ``Delta`` (the sweeps of Tables 1-2),
* the lower-bound gadget placements of Figures 5-7 live in
  :mod:`repro.lowerbound.gadget` (they need extra bookkeeping).

Every generator takes an explicit ``seed`` and returns a fully constructed
:class:`~repro.sinr.network.WirelessNetwork`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple, Union

import numpy as np

from .backends import PhysicsBackend
from .model import SINRParameters
from .network import WirelessNetwork


def _finalize(
    positions: np.ndarray,
    params: Optional[SINRParameters],
    rng: np.random.Generator,
    shuffle_ids: bool,
    id_space: Optional[int],
    backend: Union[str, PhysicsBackend] = "dense",
) -> WirelessNetwork:
    """Build a network, optionally permuting which ID lands on which position."""
    n = len(positions)
    uids: Optional[List[int]] = None
    if shuffle_ids:
        uids = list(rng.permutation(np.arange(1, n + 1)).astype(int))
    return WirelessNetwork(
        positions, params=params, uids=uids, id_space=id_space, backend=backend
    )


def uniform_random(
    n: int,
    area_side: float = 4.0,
    params: Optional[SINRParameters] = None,
    seed: int = 0,
    shuffle_ids: bool = True,
    id_space: Optional[int] = None,
    backend: Union[str, PhysicsBackend] = "dense",
) -> WirelessNetwork:
    """``n`` nodes placed uniformly at random in an ``area_side`` x ``area_side`` square."""
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, area_side, size=(n, 2))
    return _finalize(positions, params, rng, shuffle_ids, id_space, backend)


def grid(
    rows: int,
    cols: int,
    spacing: float = 0.5,
    params: Optional[SINRParameters] = None,
    seed: int = 0,
    jitter: float = 0.0,
    shuffle_ids: bool = True,
    id_space: Optional[int] = None,
    backend: Union[str, PhysicsBackend] = "dense",
) -> WirelessNetwork:
    """A ``rows x cols`` grid with the given spacing and optional positional jitter."""
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    rng = np.random.default_rng(seed)
    xs, ys = np.meshgrid(np.arange(cols) * spacing, np.arange(rows) * spacing)
    positions = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
    if jitter > 0:
        positions = positions + rng.uniform(-jitter, jitter, size=positions.shape)
    return _finalize(positions, params, rng, shuffle_ids, id_space, backend)


def gaussian_hotspots(
    hotspots: int,
    nodes_per_hotspot: int,
    spread: float = 0.25,
    separation: float = 2.0,
    params: Optional[SINRParameters] = None,
    seed: int = 0,
    shuffle_ids: bool = True,
    id_space: Optional[int] = None,
    backend: Union[str, PhysicsBackend] = "dense",
) -> WirelessNetwork:
    """Dense Gaussian clusters ("hotspots") arranged on a coarse grid.

    This is the sensor-field scenario from the paper's introduction: groups of
    sensors dropped around points of interest, with sparse space in between.
    """
    if hotspots <= 0 or nodes_per_hotspot <= 0:
        raise ValueError("hotspots and nodes_per_hotspot must be positive")
    rng = np.random.default_rng(seed)
    side = int(math.ceil(math.sqrt(hotspots)))
    centers = [
        (separation * (i % side), separation * (i // side)) for i in range(hotspots)
    ]
    chunks = []
    for cx, cy in centers:
        chunk = rng.normal(loc=(cx, cy), scale=spread, size=(nodes_per_hotspot, 2))
        chunks.append(chunk)
    positions = np.vstack(chunks)
    return _finalize(positions, params, rng, shuffle_ids, id_space, backend)


def dense_ball(
    n: int,
    radius: float = 0.5,
    center: Tuple[float, float] = (0.0, 0.0),
    params: Optional[SINRParameters] = None,
    seed: int = 0,
    shuffle_ids: bool = True,
    id_space: Optional[int] = None,
    backend: Union[str, PhysicsBackend] = "dense",
) -> WirelessNetwork:
    """``n`` nodes uniform in a disc -- a single-hop, maximally dense network."""
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    radii = radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
    positions = np.column_stack(
        [center[0] + radii * np.cos(angles), center[1] + radii * np.sin(angles)]
    )
    return _finalize(positions, params, rng, shuffle_ids, id_space, backend)


def connected_strip(
    hops: int,
    nodes_per_hop: int,
    params: Optional[SINRParameters] = None,
    seed: int = 0,
    spread: float = 0.2,
    shuffle_ids: bool = True,
    id_space: Optional[int] = None,
    backend: Union[str, PhysicsBackend] = "dense",
) -> WirelessNetwork:
    """A multi-hop strip: ``hops`` anchor points on a line, a small cloud at each.

    The hop diameter of the resulting communication graph is Theta(``hops``)
    and the density is Theta(``nodes_per_hop``); this is the family used for
    the Table 2 / Theorem 3 sweeps where ``D`` and ``Delta`` are controlled
    independently.
    """
    if hops <= 0 or nodes_per_hop <= 0:
        raise ValueError("hops and nodes_per_hop must be positive")
    parameters = params or SINRParameters.default()
    step = parameters.communication_radius * 0.9
    rng = np.random.default_rng(seed)
    chunks = []
    for h in range(hops):
        anchor = np.array([h * step, 0.0])
        if nodes_per_hop == 1:
            cloud = anchor[None, :]
        else:
            cloud = anchor[None, :] + rng.uniform(-spread, spread, size=(nodes_per_hop, 2))
            cloud[0] = anchor  # keep an anchor exactly on the line so the strip stays connected
        chunks.append(cloud)
    positions = np.vstack(chunks)
    return _finalize(positions, parameters, rng, shuffle_ids, id_space, backend)


def line(
    n: int,
    spacing: Optional[float] = None,
    params: Optional[SINRParameters] = None,
    seed: int = 0,
    shuffle_ids: bool = False,
    id_space: Optional[int] = None,
    backend: Union[str, PhysicsBackend] = "dense",
) -> WirelessNetwork:
    """``n`` nodes on a line, consecutive nodes at distance ``spacing``.

    With the default spacing (``0.9 * (1 - eps)``) the communication graph is
    a path, giving the maximal hop diameter for a given ``n``.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    parameters = params or SINRParameters.default()
    if spacing is None:
        spacing = 0.9 * parameters.communication_radius
    rng = np.random.default_rng(seed)
    positions = np.column_stack([np.arange(n) * spacing, np.zeros(n)])
    return _finalize(positions, parameters, rng, shuffle_ids, id_space, backend)


def two_hop_clusters(
    clusters: int,
    nodes_per_cluster: int,
    params: Optional[SINRParameters] = None,
    seed: int = 0,
    shuffle_ids: bool = True,
    id_space: Optional[int] = None,
    backend: Union[str, PhysicsBackend] = "dense",
) -> WirelessNetwork:
    """Clusters arranged on a ring so that neighbouring clusters are one hop apart.

    Used by the Figure 1 experiment (phases of global broadcast): the source's
    cluster wakes its ring neighbours, which wake theirs, and so on.
    """
    if clusters <= 0 or nodes_per_cluster <= 0:
        raise ValueError("clusters and nodes_per_cluster must be positive")
    parameters = params or SINRParameters.default()
    rng = np.random.default_rng(seed)
    hop = parameters.communication_radius * 0.85
    # Place cluster centres on a regular polygon whose side is one hop.
    if clusters == 1:
        centers = [np.zeros(2)]
    else:
        ring_radius = hop / (2.0 * math.sin(math.pi / clusters))
        centers = [
            ring_radius
            * np.array([math.cos(2 * math.pi * k / clusters), math.sin(2 * math.pi * k / clusters)])
            for k in range(clusters)
        ]
    chunks = []
    for center in centers:
        cloud = center[None, :] + rng.uniform(-0.15, 0.15, size=(nodes_per_cluster, 2))
        cloud[0] = center
        chunks.append(cloud)
    positions = np.vstack(chunks)
    return _finalize(positions, parameters, rng, shuffle_ids, id_space, backend)
