"""Declarative run specifications: frozen, hashable, JSON-round-trippable.

A complete experiment is described by three nested specs:

* :class:`DeploymentSpec` -- *where the nodes are*: a registry key naming a
  deployment family (``"uniform"``, ``"hotspots"``, ...), its parameters, the
  placement seed and the physics backend;
* :class:`AlgorithmSpec` -- *what runs on them*: a registry key naming an
  algorithm (``"cluster"``, ``"local-broadcast"``, ...), the
  :class:`~repro.core.config.AlgorithmConfig` preset plus field overrides,
  and algorithm-level parameters (e.g. the broadcast source);
* :class:`RunSpec` -- the pair of the two, plus free-form tags and an
  optional :class:`DynamicsSpec` turning the run into a time-varying
  scenario;
* :class:`MobilitySpec` / :class:`DynamicsSpec` -- *how the network
  changes*: a MOBILITY-registry key with parameters, the churn-process
  parameters, the epoch count and the dynamics seed (consumed by
  :func:`repro.api.run_dynamic`).

Every spec is a frozen dataclass whose payload is restricted to
JSON-representable scalars, so ``RunSpec.from_dict(spec.to_dict())`` is an
exact round trip and any run can be shipped around as a small JSON artifact
(see ``repro-sim run --spec``).  A spec without dynamics serializes exactly
as it did before dynamics existed (no ``"dynamics"`` key), so pre-existing
JSON artifacts keep round-tripping bit for bit.  Specs carry *names*, not
objects: the mapping from names to deployment generators, algorithms,
mobility models and config presets lives in :mod:`repro.api.registry`,
which is what makes a spec serializable and lets third-party scenarios
plug in without touching this module.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Mapping as AbstractMapping
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = ["DeploymentSpec", "AlgorithmSpec", "DynamicsSpec", "MobilitySpec", "RunSpec"]

#: JSON scalar types allowed inside spec parameter mappings.
_SCALARS = (bool, int, float, str, type(None))


def _freeze(value: Any, where: str) -> Any:
    """Validate and canonicalize one parameter value (JSON scalars, lists)."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item, where) for item in value)
    raise TypeError(
        f"{where} values must be JSON scalars or lists of them, "
        f"got {type(value).__name__}: {value!r}"
    )


def _freeze_params(params: Optional[Mapping[str, Any]], where: str) -> Tuple[Tuple[str, Any], ...]:
    """Canonicalize a parameter mapping to a sorted, hashable tuple of pairs.

    Accepts a mapping or an already-frozen tuple of pairs (the latter is what
    ``dataclasses.replace`` feeds back through ``__init__``).
    """
    if not params:
        return ()
    if not isinstance(params, AbstractMapping):
        params = dict(params)
    items = []
    for key in sorted(params):
        if not isinstance(key, str):
            raise TypeError(f"{where} keys must be strings, got {key!r}")
        items.append((key, _freeze(params[key], where)))
    return tuple(items)


def _thaw(value: Any) -> Any:
    """Back from the canonical frozen form to plain JSON types."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


@dataclass(frozen=True)
class DeploymentSpec:
    """A named node placement: registry key + parameters + seed + backend.

    ``kind`` must name an entry of :data:`repro.api.registry.DEPLOYMENTS`
    (or ``"none"`` for standalone algorithms that build their own network,
    like the lower-bound gadget).  ``params`` are keyword arguments of the
    registered builder; ``seed`` and ``backend`` are threaded to it
    explicitly so multi-seed ensembles and physics-backend swaps never
    require touching ``params``.  ``backend`` is a bare registry name:
    backends take no options, since how a backend stores or caches gains
    never changes a reception.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0
    backend: str = "dense"

    def __init__(
        self,
        kind: str,
        params: Optional[Mapping[str, Any]] = None,
        seed: int = 0,
        backend: str = "dense",
    ) -> None:
        object.__setattr__(self, "kind", str(kind))
        object.__setattr__(self, "params", _freeze_params(params, "DeploymentSpec.params"))
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "backend", str(backend))

    def param_dict(self) -> Dict[str, Any]:
        """The parameters as a plain keyword-argument dictionary."""
        return {key: _thaw(value) for key, value in self.params}

    def with_seed(self, seed: int) -> "DeploymentSpec":
        """Copy of this spec with a different placement seed."""
        return replace(self, seed=int(seed))

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "params": {key: _thaw(value) for key, value in self.params},
            "seed": self.seed,
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DeploymentSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            kind=data["kind"],
            params=data.get("params") or {},
            seed=data.get("seed", 0),
            backend=data.get("backend", "dense"),
        )


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named algorithm: registry key + config preset/overrides + parameters.

    ``name`` must name an entry of :data:`repro.api.registry.ALGORITHMS`.
    The effective :class:`~repro.core.config.AlgorithmConfig` is built by
    taking the registered ``preset`` and applying ``overrides`` field by
    field (``dataclasses.replace`` semantics), so any hand-tuned config is
    expressible declaratively.  ``params`` are algorithm-level keyword
    arguments, e.g. ``{"source": 3}`` for global broadcast.
    """

    name: str
    preset: str = "fast"
    overrides: Tuple[Tuple[str, Any], ...] = ()
    params: Tuple[Tuple[str, Any], ...] = ()

    def __init__(
        self,
        name: str,
        preset: str = "fast",
        overrides: Optional[Mapping[str, Any]] = None,
        params: Optional[Mapping[str, Any]] = None,
    ) -> None:
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "preset", str(preset))
        object.__setattr__(self, "overrides", _freeze_params(overrides, "AlgorithmSpec.overrides"))
        object.__setattr__(self, "params", _freeze_params(params, "AlgorithmSpec.params"))

    @classmethod
    def from_config(cls, name: str, config: Any, params: Optional[Mapping[str, Any]] = None) -> "AlgorithmSpec":
        """Spec for ``name`` pinning an explicit ``AlgorithmConfig`` instance.

        The config is captured as a full override set on the ``"default"``
        preset, so the spec stays serializable while reproducing the object
        exactly (``spec.build_config() == config``).
        """
        overrides = dataclasses.asdict(config)
        return cls(name=name, preset="default", overrides=overrides, params=params)

    def param_dict(self) -> Dict[str, Any]:
        """Algorithm parameters as a plain keyword-argument dictionary."""
        return {key: _thaw(value) for key, value in self.params}

    def override_dict(self) -> Dict[str, Any]:
        """Config field overrides as a plain dictionary."""
        return {key: _thaw(value) for key, value in self.overrides}

    def build_config(self):
        """Materialize the effective :class:`AlgorithmConfig` for this spec."""
        from .registry import CONFIG_PRESETS

        base = CONFIG_PRESETS.get(self.preset)()
        overrides = self.override_dict()
        return replace(base, **overrides) if overrides else base

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "preset": self.preset,
            "overrides": {key: _thaw(value) for key, value in self.overrides},
            "params": {key: _thaw(value) for key, value in self.params},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AlgorithmSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            preset=data.get("preset", "fast"),
            overrides=data.get("overrides") or {},
            params=data.get("params") or {},
        )


@dataclass(frozen=True)
class MobilitySpec:
    """A named mobility model: MOBILITY-registry key + parameters.

    ``kind`` must name an entry of :data:`repro.api.registry.MOBILITY`
    (``"waypoint"``, ``"drift"``, ``"convoy"``, ``"static"``, or a plugin);
    ``params`` are keyword arguments of the registered factory.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    def __init__(self, kind: str, params: Optional[Mapping[str, Any]] = None) -> None:
        object.__setattr__(self, "kind", str(kind))
        object.__setattr__(self, "params", _freeze_params(params, "MobilitySpec.params"))

    def param_dict(self) -> Dict[str, Any]:
        """The parameters as a plain keyword-argument dictionary."""
        return {key: _thaw(value) for key, value in self.params}

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "params": {key: _thaw(value) for key, value in self.params},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MobilitySpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(kind=data["kind"], params=data.get("params") or {})


@dataclass(frozen=True)
class DynamicsSpec:
    """How a scenario evolves over time: mobility + churn + epochs + seed.

    ``events`` are the keyword arguments of
    :class:`repro.dynamics.events.ChurnProcess` (``crash_prob``,
    ``join_prob``, ``sleep_prob``, ``sleep_epochs``, ``min_nodes``); an
    empty mapping means a churn-free scenario.  ``seed`` drives the
    dynamics generator, independent of the placement seed, so mobility can
    be re-rolled over a fixed deployment and vice versa.
    """

    mobility: MobilitySpec
    epochs: int = 8
    events: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0

    def __init__(
        self,
        mobility: MobilitySpec,
        epochs: int = 8,
        events: Optional[Mapping[str, Any]] = None,
        seed: int = 0,
    ) -> None:
        if not isinstance(mobility, MobilitySpec):
            raise TypeError("mobility must be a MobilitySpec")
        if int(epochs) < 1:
            raise ValueError("epochs must be at least 1")
        object.__setattr__(self, "mobility", mobility)
        object.__setattr__(self, "epochs", int(epochs))
        object.__setattr__(self, "events", _freeze_params(events, "DynamicsSpec.events"))
        object.__setattr__(self, "seed", int(seed))

    def event_dict(self) -> Dict[str, Any]:
        """The churn-process parameters as a plain keyword-argument dictionary."""
        return {key: _thaw(value) for key, value in self.events}

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return {
            "mobility": self.mobility.to_dict(),
            "epochs": self.epochs,
            "events": {key: _thaw(value) for key, value in self.events},
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DynamicsSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            mobility=MobilitySpec.from_dict(data["mobility"]),
            epochs=data.get("epochs", 8),
            events=data.get("events") or {},
            seed=data.get("seed", 0),
        )


@dataclass(frozen=True)
class RunSpec:
    """One complete, reproducible experiment: deployment + algorithm (+ tags).

    ``tags`` are free-form JSON scalars carried through to results and
    reports (sweeps use them to record the swept parameter); they do not
    influence execution.  ``dynamics`` (optional) turns the run into a
    time-varying scenario executed by :func:`repro.api.run_dynamic`; specs
    without it serialize exactly as before the field existed.
    """

    deployment: DeploymentSpec
    algorithm: AlgorithmSpec
    tags: Tuple[Tuple[str, Any], ...] = ()
    dynamics: Optional[DynamicsSpec] = None

    def __init__(
        self,
        deployment: DeploymentSpec,
        algorithm: AlgorithmSpec,
        tags: Optional[Mapping[str, Any]] = None,
        dynamics: Optional[DynamicsSpec] = None,
    ) -> None:
        if not isinstance(deployment, DeploymentSpec):
            raise TypeError("deployment must be a DeploymentSpec")
        if not isinstance(algorithm, AlgorithmSpec):
            raise TypeError("algorithm must be an AlgorithmSpec")
        if dynamics is not None and not isinstance(dynamics, DynamicsSpec):
            raise TypeError("dynamics must be a DynamicsSpec (or None)")
        object.__setattr__(self, "deployment", deployment)
        object.__setattr__(self, "algorithm", algorithm)
        object.__setattr__(self, "tags", _freeze_params(tags, "RunSpec.tags"))
        object.__setattr__(self, "dynamics", dynamics)

    @property
    def seed(self) -> int:
        """The placement seed (shortcut for ``spec.deployment.seed``)."""
        return self.deployment.seed

    def with_seed(self, seed: int) -> "RunSpec":
        """Copy of this spec with a different placement seed."""
        return replace(self, deployment=self.deployment.with_seed(seed))

    def with_dynamics(self, dynamics: Optional[DynamicsSpec]) -> "RunSpec":
        """Copy of this spec with a different (or removed) dynamics block."""
        return replace(self, dynamics=dynamics)

    def with_tags(self, tags: Optional[Mapping[str, Any]]) -> "RunSpec":
        """Copy of this spec with the tag mapping replaced (``None`` clears it).

        Tags participate in the spec's content address (:func:`repro.store.spec_key`),
        so derived specs that must cache separately -- e.g. the service
        tagging a session run with the session's state fingerprint -- get
        distinct store entries without touching execution semantics.
        """
        return replace(self, tags=dict(tags) if tags else {})

    def tag_dict(self) -> Dict[str, Any]:
        """The tags as a plain dictionary."""
        return {key: _thaw(value) for key, value in self.tags}

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (inverse of :meth:`from_dict`).

        The ``"dynamics"`` key is present only when a dynamics block is set:
        static specs keep the exact serialization they had before dynamics
        existed (pinned by the backward-compatibility tests).
        """
        data = {
            "deployment": self.deployment.to_dict(),
            "algorithm": self.algorithm.to_dict(),
            "tags": {key: _thaw(value) for key, value in self.tags},
        }
        if self.dynamics is not None:
            data["dynamics"] = self.dynamics.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        dynamics = data.get("dynamics")
        return cls(
            deployment=DeploymentSpec.from_dict(data["deployment"]),
            algorithm=AlgorithmSpec.from_dict(data["algorithm"]),
            tags=data.get("tags") or {},
            dynamics=DynamicsSpec.from_dict(dynamics) if dynamics else None,
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to a JSON string (a shareable run artifact)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))
