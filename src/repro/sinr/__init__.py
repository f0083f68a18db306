"""SINR substrate: model parameters, geometry, physics, networks, deployments."""

from .geometry import (
    Ball,
    ClosePair,
    chi,
    critical_distance,
    cluster_density,
    distance,
    find_close_pairs,
    minimum_pairwise_distance,
    pairwise_distances,
    unit_ball_density,
)
from .backends import (
    BACKENDS,
    DenseMatrixBackend,
    LazyBlockBackend,
    PhysicsBackend,
    Reception,
    make_backend,
)
from .metric import doubling_dimension_estimate
from .model import NUMERIC_TOLERANCE, SINRParameters, log_star
from .network import WirelessNetwork

__all__ = [
    "BACKENDS",
    "Ball",
    "ClosePair",
    "DenseMatrixBackend",
    "LazyBlockBackend",
    "NUMERIC_TOLERANCE",
    "PhysicsBackend",
    "make_backend",
    "Reception",
    "SINRParameters",
    "WirelessNetwork",
    "chi",
    "critical_distance",
    "cluster_density",
    "distance",
    "doubling_dimension_estimate",
    "find_close_pairs",
    "log_star",
    "minimum_pairwise_distance",
    "pairwise_distances",
    "unit_ball_density",
]
