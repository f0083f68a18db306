"""The wireless network: placement, IDs, communication graph, densities.

:class:`WirelessNetwork` is the central substrate object.  It owns

* the node placement (positions, unique IDs),
* the :class:`~repro.sinr.backends.PhysicsBackend` evaluating SINR receptions
  (selected by the ``backend`` argument: dense matrix, lazy blocks or the
  spatial grid),
* the *communication graph* (edges between nodes at distance <= 1 - eps,
  Section 1.1),
* the global knowledge every node shares: the ID space bound ``N``, the
  degree/density bound ``Delta``, and the SINR parameters.

The distributed algorithms in :mod:`repro.core` receive a network instance
but only ever use the public, knowledge-respecting API (IDs, ``id_space``,
``delta_bound``, ``params``) plus the simulator built on top of it; geometry
accessors are reserved for deployment code, tests and analysis.

:meth:`WirelessNetwork.from_distances` builds the same network over an
abstract metric given by a pairwise-distance matrix (the paper's footnote-1
generalization to bounded-growth metric spaces).  Such a network keeps no
coordinates: density and the communication graph are read off the matrix,
and the coordinate accessors and the mutation API raise ``ValueError``.

Networks are no longer frozen at construction: :meth:`WirelessNetwork.move_nodes`,
:meth:`~WirelessNetwork.add_nodes` and :meth:`~WirelessNetwork.remove_nodes`
are the *single* mutation API for time-varying scenarios
(:mod:`repro.dynamics`).  Every mutation updates the physics backend
incrementally and routes through ``_invalidate_geometry_caches()``, so the
cached communication graph, uid lookup table and measured density bound can
never serve stale answers.  A :class:`~repro.simulation.engine.SINRSimulator`
snapshots the uid array at construction -- build a fresh simulator after
mutating (the epoch runner does exactly that).

The network keeps no per-execution state: node state is the index-aligned
uid and position arrays, and wake-up belongs to the simulator of one run,
so a run leaves the network exactly as it found it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import networkx as nx
import numpy as np
from scipy.spatial import cKDTree

from .backends import DenseMatrixBackend, PhysicsBackend, make_backend
from .geometry import unit_ball_density
from .model import NUMERIC_TOLERANCE, SINRParameters


class WirelessNetwork:
    """A static ad hoc wireless network under the SINR model.

    Parameters
    ----------
    positions:
        ``(n, 2)`` array of node coordinates.
    params:
        SINR parameters; defaults to :meth:`SINRParameters.default`.
    uids:
        Unique IDs in ``[1, N]``.  Defaults to ``1..n``.
    id_space:
        The bound ``N`` on IDs known to every node.  Defaults to a small
        polynomial of ``n`` (``max(8, 4 n)``), mirroring ``N = n^{O(1)}``.
    delta_bound:
        The bound ``Delta`` on density/degree known to every node.  Defaults
        to the measured unit-ball density.
    backend:
        Physics backend evaluating SINR receptions: ``"dense"`` (default,
        precomputed O(n^2) gain matrix), ``"lazy"`` (O(n) memory, gain blocks
        computed on demand), ``"spatial"`` (uniform-grid index with certified
        far-field bounds -- use for n >> 10^4, scales to n = 10^6), or an
        already constructed :class:`~repro.sinr.backends.PhysicsBackend`.
    """

    def __init__(
        self,
        positions: Sequence[Sequence[float]],
        params: Optional[SINRParameters] = None,
        uids: Optional[Sequence[int]] = None,
        id_space: Optional[int] = None,
        delta_bound: Optional[int] = None,
        backend: Union[str, PhysicsBackend] = "dense",
    ) -> None:
        # A private copy: move_nodes writes into it, and a caller's later
        # edit of their array must not move nodes behind the backend's back.
        positions = np.array(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("positions must be an (n, 2) array")
        self._init_nodes(len(positions), params, uids, id_space, delta_bound, positions)
        self._physics = make_backend(backend, positions, self._params)

    @classmethod
    def from_distances(
        cls,
        distances: Sequence[Sequence[float]],
        params: Optional[SINRParameters] = None,
        uids: Optional[Sequence[int]] = None,
        id_space: Optional[int] = None,
        delta_bound: Optional[int] = None,
    ) -> WirelessNetwork:
        """A network over an abstract metric, given by pairwise distances.

        ``distances`` is a symmetric ``(n, n)`` matrix with a zero diagonal;
        the other parameters are those of the constructor.  Physics runs on
        the dense backend's
        :meth:`~repro.sinr.backends.dense.DenseMatrixBackend.from_distance_matrix`.
        The network keeps no coordinates, so :attr:`positions`,
        :meth:`position_of` and the mutation API raise ``ValueError``.
        """
        matrix = np.asarray(distances, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("distances must be a square matrix")
        if not np.allclose(np.diag(matrix), 0.0, atol=1e-9):
            raise ValueError("the distance of a node to itself must be zero")
        network = cls.__new__(cls)
        network._init_nodes(len(matrix), params, uids, id_space, delta_bound, None)
        network._physics = DenseMatrixBackend.from_distance_matrix(matrix, network._params)
        return network

    def _init_nodes(
        self,
        n: int,
        params: Optional[SINRParameters],
        uids: Optional[Sequence[int]],
        id_space: Optional[int],
        delta_bound: Optional[int],
        positions: Optional[np.ndarray],
    ) -> None:
        """Validate IDs and set up the uid arrays and the knowledge bounds."""
        self._params = params or SINRParameters.default()
        if n == 0:
            raise ValueError("a network needs at least one node")

        if uids is None:
            uids = list(range(1, n + 1))
        uids = [int(u) for u in uids]
        if len(uids) != n:
            raise ValueError("number of uids must match number of positions")
        if len(set(uids)) != n:
            raise ValueError("node IDs must be unique")
        if min(uids) <= 0:
            raise ValueError("node IDs must be positive")

        if id_space is None:
            id_space = max(8, 4 * n, max(uids))
        if id_space < max(uids):
            raise ValueError("id_space must be at least the largest node ID")

        self._positions: Optional[np.ndarray] = positions
        self._uid_to_index: Dict[int, int] = {uid: i for i, uid in enumerate(uids)}
        self._uid_array = np.array(uids, dtype=int)
        self._id_space = int(id_space)
        self._uid_lookup: Optional[np.ndarray] = None
        # Geometry-derived state is cached lazily and invalidated by every
        # placement mutation (see _invalidate_geometry_caches).
        self._graph: Optional[nx.Graph] = None
        # A user-supplied Delta stays in force across mutations (it is shared
        # *knowledge*, not a measurement); a measured one is re-measured
        # lazily whenever the placement changes.
        self._delta_bound_fixed = delta_bound is not None
        self._delta_bound: Optional[int] = int(delta_bound) if delta_bound is not None else None

    # ------------------------------------------------------------------ #
    # Knowledge shared by all nodes (what protocols may consult).
    # ------------------------------------------------------------------ #

    @property
    def params(self) -> SINRParameters:
        """The SINR parameters, known to every node."""
        return self._params

    @property
    def id_space(self) -> int:
        """The bound ``N`` on node identifiers, known to every node."""
        return self._id_space

    @property
    def delta_bound(self) -> int:
        """The bound ``Delta`` on density/degree, known to every node."""
        if self._delta_bound is None:
            self._delta_bound = max(1, self.density())
        return self._delta_bound

    @property
    def size(self) -> int:
        """Number of nodes ``n``."""
        return len(self._uid_array)

    def __len__(self) -> int:
        return len(self._uid_array)

    @property
    def uids(self) -> List[int]:
        """All node IDs, in index order."""
        return self._uid_array.tolist()

    # ------------------------------------------------------------------ #
    # Simulator-facing accessors.
    # ------------------------------------------------------------------ #

    @property
    def physics(self) -> PhysicsBackend:
        """The SINR physics backend for this placement."""
        return self._physics

    def index_of(self, uid: int) -> int:
        """Dense index of the node with identifier ``uid``."""
        return self._uid_to_index[uid]

    def uid_of(self, index: int) -> int:
        """Identifier of the node at dense index ``index``."""
        return int(self._uid_array[index])

    @property
    def uid_array(self) -> np.ndarray:
        """Node identifiers as an index-aligned array (read-only view)."""
        view = self._uid_array.view()
        view.flags.writeable = False
        return view

    def indices_of(self, uids: Iterable[int]) -> np.ndarray:
        """Dense indices of the given identifiers, as an index array."""
        if isinstance(uids, np.ndarray) and uids.dtype.kind in "iu":
            return self.indices_of_array(uids)
        table = self._uid_to_index
        return np.fromiter((table[uid] for uid in uids), dtype=int)

    @property
    def uid_index_lookup(self) -> np.ndarray:
        """``(id_space + 1,)`` array mapping uid -> dense index (-1 if absent).

        Built lazily once; the columnar schedule runners use it to translate
        whole uid arrays in one vectorized gather.
        """
        if self._uid_lookup is None:
            lookup = np.full(self._id_space + 1, -1, dtype=np.int64)
            lookup[self._uid_array] = np.arange(len(self._uid_array), dtype=np.int64)
            self._uid_lookup = lookup
        return self._uid_lookup

    def indices_of_array(self, uids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`indices_of` for an integer uid array.

        Raises ``KeyError`` naming the first unknown uid.
        """
        uids = np.ascontiguousarray(uids, dtype=np.int64)
        if uids.size and (uids.min() < 1 or uids.max() > self._id_space):
            raise KeyError(int(uids[(uids < 1) | (uids > self._id_space)][0]))
        indices = self.uid_index_lookup[uids]
        if uids.size and indices.min() < 0:
            raise KeyError(int(uids[indices < 0][0]))
        return indices

    # ------------------------------------------------------------------ #
    # Geometry / analysis accessors (not available to protocols).
    # ------------------------------------------------------------------ #

    def _require_positions(self, operation: str) -> np.ndarray:
        if self._positions is None:
            raise ValueError(
                f"this network was built from a distance matrix; {operation} needs coordinates"
            )
        return self._positions

    @property
    def positions(self) -> np.ndarray:
        """Node coordinates (read-only)."""
        view = self._require_positions("positions").view()
        view.flags.writeable = False
        return view

    def position_of(self, uid: int) -> Tuple[float, float]:
        """Coordinates of node ``uid`` (analysis only)."""
        x, y = self._require_positions("position_of")[self._uid_to_index[uid]]
        return float(x), float(y)

    def distance(self, uid_a: int, uid_b: int) -> float:
        """Distance between two nodes (by ID), Euclidean or metric."""
        return self._physics.distance(self._uid_to_index[uid_a], self._uid_to_index[uid_b])

    @property
    def communication_graph(self) -> nx.Graph:
        """The communication graph on node IDs (edges at distance <= 1 - eps).

        Built lazily and cached; every placement mutation invalidates the
        cache, so the graph (and everything derived from it: degrees, BFS
        layers, diameter) always reflects the current positions.
        """
        if self._graph is None:
            self._graph = self._build_communication_graph()
        return self._graph

    def neighbors(self, uid: int) -> List[int]:
        """IDs of the communication-graph neighbours of ``uid``."""
        return sorted(self.communication_graph.neighbors(uid))

    def degree(self, uid: int) -> int:
        """Communication-graph degree of node ``uid``."""
        return int(self.communication_graph.degree[uid])

    def max_degree(self) -> int:
        """Largest degree in the communication graph."""
        return max((d for _, d in self.communication_graph.degree()), default=0)

    def density(self) -> int:
        """Unit-ball density of the placement (the paper's Gamma).

        Over a metric, the largest number of nodes within transmission
        range of any node.
        """
        radius = self._params.transmission_range
        if self._positions is None:
            within = self._physics.distances <= radius + NUMERIC_TOLERANCE
            return int(within.sum(axis=1).max())
        return unit_ball_density(self._positions, radius=radius)

    def is_connected(self) -> bool:
        """Whether the communication graph is connected."""
        return nx.is_connected(self.communication_graph) if self.size > 1 else True

    def diameter_hops(self, source_uid: Optional[int] = None) -> int:
        """Hop diameter of the communication graph (eccentricity of ``source_uid``).

        If no source is given and the graph is connected, returns the true
        diameter; otherwise returns the eccentricity of the given source
        restricted to its connected component.
        """
        if self.size == 1:
            return 0
        graph = self.communication_graph
        if source_uid is not None:
            lengths = nx.single_source_shortest_path_length(graph, source_uid)
            return max(lengths.values())
        if not nx.is_connected(graph):
            raise ValueError("diameter of a disconnected communication graph is undefined")
        return nx.diameter(graph)

    def bfs_layers(self, source_uid: int) -> Dict[int, int]:
        """Hop distance from ``source_uid`` to every reachable node (by ID)."""
        return dict(nx.single_source_shortest_path_length(self.communication_graph, source_uid))

    # ------------------------------------------------------------------ #
    # Placement mutation (dynamic networks) -- the single mutation API.
    # ------------------------------------------------------------------ #

    def _invalidate_geometry_caches(self) -> None:
        """Drop every cache derived from the placement or the uid set.

        All mutation routes through here; anything cached from geometry
        (communication graph and its BFS/diameter/degree derivatives, the
        measured density bound, the uid->index translation table) is rebuilt
        lazily on next access instead of serving stale answers.
        """
        self._graph = None
        self._uid_lookup = None
        if not self._delta_bound_fixed:
            self._delta_bound = None

    def move_nodes(self, uids: Iterable[int], new_positions: Sequence[Sequence[float]]) -> None:
        """Move the given nodes to new coordinates.

        The physics backend is updated *incrementally* (only the gain
        rows/columns of the moved nodes are recomputed) and all geometry
        caches are invalidated.  Build a new simulator per epoch, as after
        any mutation.
        """
        positions = self._require_positions("move_nodes")
        uid_list = [int(u) for u in uids]
        new_xy = np.asarray(new_positions, dtype=float).reshape(-1, 2)
        if len(uid_list) != len(new_xy):
            raise ValueError("uids and new_positions must have matching lengths")
        if not uid_list:
            return
        indices = self.indices_of(uid_list)
        self._physics.update_positions(indices, new_xy)
        positions[indices] = new_xy
        self._invalidate_geometry_caches()

    def add_nodes(
        self,
        positions: Sequence[Sequence[float]],
        uids: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Append nodes at the given coordinates; returns their assigned uids.

        Fresh uids default to the smallest unused identifiers above the
        current maximum.  If an assigned uid exceeds the ID-space bound
        ``N``, the bound grows to fit -- joins are global knowledge in the
        dynamic setting (every epoch re-runs the algorithm under the current
        ``N``).
        """
        old_xy = self._require_positions("add_nodes")
        new_xy = np.asarray(positions, dtype=float).reshape(-1, 2)
        m = len(new_xy)
        if m == 0:
            return []
        if uids is None:
            start = int(self._uid_array.max()) + 1
            uid_list = list(range(start, start + m))
        else:
            uid_list = [int(u) for u in uids]
            if len(uid_list) != m:
                raise ValueError("number of uids must match number of positions")
            if len(set(uid_list)) != m or any(u in self._uid_to_index for u in uid_list):
                raise ValueError("node IDs must be unique")
            if min(uid_list) <= 0:
                raise ValueError("node IDs must be positive")
        old_n = self.size
        self._physics.add_nodes(new_xy)
        self._positions = np.vstack([old_xy, new_xy])
        self._uid_to_index.update((uid, old_n + i) for i, uid in enumerate(uid_list))
        self._uid_array = np.concatenate([self._uid_array, np.array(uid_list, dtype=int)])
        self._id_space = max(self._id_space, max(uid_list))
        self._invalidate_geometry_caches()
        return uid_list

    def remove_nodes(self, uids: Iterable[int]) -> None:
        """Delete the given nodes (crashes); remaining nodes are re-indexed.

        At least one node must survive.  Dense indices are compacted, so any
        index previously handed out (schedules, simulators) is stale after
        this call -- which is why the epoch runner rebuilds per epoch.
        """
        positions = self._require_positions("remove_nodes")
        uid_list = [int(u) for u in uids]
        if not uid_list:
            return
        indices = self.indices_of(uid_list)
        if len(np.unique(indices)) != len(indices):
            raise ValueError("uids must be duplicate-free")
        if len(indices) >= self.size:
            raise ValueError("cannot remove every node from a network")
        keep = np.setdiff1d(np.arange(self.size), indices)
        self._physics.remove_nodes(indices)
        self._positions = positions[keep]
        self._uid_array = self._uid_array[keep]
        self._uid_to_index = {uid: i for i, uid in enumerate(self._uid_array.tolist())}
        self._invalidate_geometry_caches()

    # ------------------------------------------------------------------ #
    # Internal helpers.
    # ------------------------------------------------------------------ #

    def _build_communication_graph(self) -> nx.Graph:
        graph = nx.Graph()
        graph.add_nodes_from(self._uid_array.tolist())
        reach = self._params.communication_radius + NUMERIC_TOLERANCE
        if self._positions is None:
            pairs = np.argwhere(np.triu(self._physics.distances <= reach, k=1))
        else:
            pairs = cKDTree(self._positions).query_pairs(r=reach, output_type="ndarray")
        if len(pairs):
            graph.add_edges_from(
                zip(self._uid_array[pairs[:, 0]].tolist(), self._uid_array[pairs[:, 1]].tolist())
            )
        return graph

    def describe(self) -> str:
        """One-line summary for logs and examples."""
        return (
            f"WirelessNetwork(n={self.size}, N={self.id_space}, Delta={self.delta_bound}, "
            f"max_degree={self.max_degree()}, connected={self.is_connected()})"
        )
