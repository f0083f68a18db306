"""Declarative sweep files: YAML/JSON documents compiled to RunSpec grids.

A sweep file describes a Cartesian grid of runs without writing Python::

    name: density-sweep
    algorithm:
      name: local-broadcast
      preset: fast
    deployment:
      kind: uniform
      params:
        nodes: [100, 200, 400]      # a list value is a swept axis
        area: 2.0
    seeds: 0:8                      # range syntax, like the CLI
    matrix:                         # named variables, usable as placeholders
      backend: [dense, spatial]
    tags:
      label: "n={nodes}-{backend}"  # {placeholder} expansion

Expansion order is documented and deterministic (it fixes the grid order,
hence the store-collection merge order): ``matrix`` variables vary slowest
(declaration order), then deployment list-params, then algorithm
list-params, then overrides, and ``seeds`` vary fastest -- each axis
row-major via :func:`itertools.product`.  The expansion of a sweep file is
therefore exactly the grid a nested-loop Python script over the same lists
would build, a property pinned by a hypothesis test.

Placeholders: a string value that *is* exactly ``"{var}"`` is replaced by
the variable's value with its type preserved (so ``nodes: "{n}"`` stays an
int); a string *containing* placeholders is formatted to a string.
Variables are the matrix names plus the current axis values (``nodes``,
``seed``, ...).  Unknown names, unknown registry keys and malformed
documents raise :class:`SweepFileError` naming the bad field and listing
the alternatives.

YAML parsing needs PyYAML (an optional dependency); JSON sweep files work
everywhere.
"""

from __future__ import annotations

import itertools
import json
import os
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..api.registry import ALGORITHMS, CONFIG_PRESETS, DEPLOYMENTS
from ..api.specs import AlgorithmSpec, DeploymentSpec, RunSpec

__all__ = ["SweepFile", "SweepFileError", "compile_sweep", "load_sweep_file", "parse_seed_spec"]

_TOP_FIELDS = ("name", "algorithm", "deployment", "seeds", "matrix", "tags")
_ALGORITHM_FIELDS = ("name", "preset", "params", "overrides")
_DEPLOYMENT_FIELDS = ("kind", "backend", "params")


class SweepFileError(ValueError):
    """A sweep document failed validation; the message names the bad field."""


@dataclass(frozen=True)
class SweepFile:
    """A compiled sweep: the expanded grid plus its axis summary.

    ``axes`` maps each swept variable (in expansion order, slowest first)
    to its value list -- ``len(specs)`` is the product of their lengths.
    """

    name: str
    specs: Tuple[RunSpec, ...]
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...]

    def __len__(self) -> int:
        return len(self.specs)

    def axis_summary(self) -> str:
        """One line naming each axis and its size, e.g. ``nodes(3) x seed(8)``."""
        if not self.axes:
            return "1 cell (no swept axes)"
        return " x ".join(f"{name}({len(values)})" for name, values in self.axes)


def parse_seed_spec(value: Any) -> List[int]:
    """Parse the shared seed syntax: ints, ranges, and lists of either.

    Accepts an int (one seed), a list of ints/range-strings, or a string of
    comma/space-separated tokens where each token is an integer or a
    half-open range ``start:stop`` / ``start:stop:step`` (``"0:32"`` means
    seeds 0..31, like Python's ``range``).  Used by both the sweep-file
    ``seeds`` field and the CLI ``--seeds`` flag.
    """
    if isinstance(value, bool):
        raise SweepFileError(f"invalid seeds value {value!r}: expected int, range string or list")
    if isinstance(value, int):
        return [value]
    if isinstance(value, (list, tuple)):
        seeds: List[int] = []
        for item in value:
            seeds.extend(parse_seed_spec(item))
        if not seeds:
            raise SweepFileError("seeds list is empty")
        return seeds
    if isinstance(value, str):
        seeds = []
        for token in value.replace(",", " ").split():
            if ":" in token:
                parts = token.split(":")
                if len(parts) not in (2, 3):
                    raise SweepFileError(
                        f"invalid seed range {token!r}: expected start:stop or start:stop:step"
                    )
                try:
                    numbers = [int(part) for part in parts]
                except ValueError:
                    raise SweepFileError(
                        f"invalid seed range {token!r}: bounds must be integers"
                    ) from None
                step = numbers[2] if len(numbers) == 3 else 1
                if step == 0:
                    raise SweepFileError(f"invalid seed range {token!r}: step must be nonzero")
                expanded = list(range(numbers[0], numbers[1], step))
                if not expanded:
                    raise SweepFileError(f"seed range {token!r} is empty")
                seeds.extend(expanded)
            else:
                try:
                    seeds.append(int(token))
                except ValueError:
                    raise SweepFileError(
                        f"invalid seed token {token!r}: expected an integer or start:stop[:step]"
                    ) from None
        if not seeds:
            raise SweepFileError("seeds string is empty")
        return seeds
    raise SweepFileError(
        f"invalid seeds value {value!r} ({type(value).__name__}): "
        f"expected int, range string or list"
    )


def _check_fields(section: Mapping[str, Any], allowed: Sequence[str], where: str) -> None:
    """Reject unknown keys, naming the field and listing the alternatives."""
    for key in section:
        if key not in allowed:
            raise SweepFileError(
                f"unknown field {where}.{key}; allowed: {', '.join(allowed)}"
            )


def _check_registry(value: str, registry: Any, where: str, extra: Sequence[str] = ()) -> None:
    """Validate a registry-keyed field, listing the registered alternatives."""
    if value in registry or value in extra:
        return
    names = sorted(set(list(registry.names()) + list(extra)))
    raise SweepFileError(
        f"unknown {where} {value!r}; available: {', '.join(names) or '(none)'}"
    )


def _placeholder_names(text: str) -> List[str]:
    """The placeholder names appearing in a format string."""
    try:
        return [name for _, name, _, _ in string.Formatter().parse(text) if name]
    except ValueError as exc:
        raise SweepFileError(f"malformed placeholder in {text!r}: {exc}") from None


def _substitute(value: Any, variables: Mapping[str, Any], where: str) -> Any:
    """Expand ``{placeholder}`` references in one value.

    A string that *is* a single bare placeholder substitutes the variable
    with its type preserved; any other string containing placeholders is
    ``str.format``-ed.  Non-strings pass through.
    """
    if not isinstance(value, str):
        return value
    names = _placeholder_names(value)
    if not names:
        return value
    for name in names:
        if name not in variables:
            raise SweepFileError(
                f"unknown placeholder {{{name}}} in {where} ({value!r}); "
                f"available: {', '.join(sorted(variables)) or '(none)'}"
            )
    if value.startswith("{") and value.endswith("}") and len(names) == 1 and value == "{%s}" % names[0]:
        return variables[names[0]]
    return value.format(**variables)


def _expand_mapping(
    mapping: Mapping[str, Any], variables: Mapping[str, Any], section: str
) -> Dict[str, Any]:
    """Placeholder-expand every value of one parameter mapping."""
    return {
        key: _substitute(value, variables, f"{section}.{key}")
        for key, value in mapping.items()
    }


def _split_axes(
    section: Optional[Mapping[str, Any]], where: str
) -> Tuple[Dict[str, Any], List[Tuple[str, List[Any]]]]:
    """Separate a params mapping into fixed values and swept list axes.

    A list value is an axis (one cell per element, declaration order
    preserved); to pass a *literal* list as a single parameter value, wrap
    it once: ``[[0.5, 1.0]]`` sweeps nothing and passes ``[0.5, 1.0]``.
    """
    if section is None:
        return {}, []
    if not isinstance(section, Mapping):
        raise SweepFileError(f"{where} must be a mapping, got {type(section).__name__}")
    fixed: Dict[str, Any] = {}
    axes: List[Tuple[str, List[Any]]] = []
    for key, value in section.items():
        if isinstance(value, list):
            if not value:
                raise SweepFileError(f"{where}.{key} is an empty list; an axis needs values")
            axes.append((str(key), list(value)))
        else:
            fixed[str(key)] = value
    return fixed, axes


def compile_sweep(document: Mapping[str, Any], default_name: str = "sweep") -> SweepFile:
    """Compile one parsed sweep document into its expanded RunSpec grid.

    Validation is eager and total: every registry key, field name and
    placeholder is checked before any spec is built, so a bad document
    fails with one actionable error rather than mid-expansion.
    """
    if not isinstance(document, Mapping):
        raise SweepFileError(
            f"sweep document must be a mapping, got {type(document).__name__}"
        )
    _check_fields(document, _TOP_FIELDS, "sweep")
    if "algorithm" not in document:
        raise SweepFileError("sweep.algorithm is required (which algorithm to run)")
    if "deployment" not in document:
        raise SweepFileError("sweep.deployment is required (where the nodes are)")

    algorithm = document["algorithm"]
    if not isinstance(algorithm, Mapping) or "name" not in algorithm:
        raise SweepFileError(
            "sweep.algorithm must be a mapping with at least a 'name' field; "
            f"available algorithms: {', '.join(ALGORITHMS.names())}"
        )
    _check_fields(algorithm, _ALGORITHM_FIELDS, "sweep.algorithm")
    _check_registry(str(algorithm["name"]), ALGORITHMS, "sweep.algorithm.name")
    preset = str(algorithm.get("preset", "fast"))
    _check_registry(preset, CONFIG_PRESETS, "sweep.algorithm.preset")

    deployment = document["deployment"]
    if not isinstance(deployment, Mapping) or "kind" not in deployment:
        raise SweepFileError(
            "sweep.deployment must be a mapping with at least a 'kind' field; "
            f"available deployments: {', '.join(DEPLOYMENTS.names() + ['none'])}"
        )
    _check_fields(deployment, _DEPLOYMENT_FIELDS, "sweep.deployment")
    _check_registry(str(deployment["kind"]), DEPLOYMENTS, "sweep.deployment.kind", extra=("none",))
    backend = deployment.get("backend", "dense")
    from ..sinr.backends import BACKENDS

    # A backend carrying placeholders is validated per cell, after expansion.
    if isinstance(backend, str) and not _placeholder_names(backend) and backend not in BACKENDS:
        raise SweepFileError(
            f"unknown sweep.deployment.backend {backend!r}; "
            f"available: {', '.join(sorted(BACKENDS))}"
        )

    matrix = document.get("matrix") or {}
    if not isinstance(matrix, Mapping):
        raise SweepFileError(f"sweep.matrix must be a mapping, got {type(matrix).__name__}")
    matrix_axes: List[Tuple[str, List[Any]]] = []
    for key, values in matrix.items():
        if not isinstance(values, list) or not values:
            raise SweepFileError(
                f"sweep.matrix.{key} must be a non-empty list of values to sweep"
            )
        matrix_axes.append((str(key), list(values)))

    dep_fixed, dep_axes = _split_axes(deployment.get("params"), "sweep.deployment.params")
    alg_fixed, alg_axes = _split_axes(algorithm.get("params"), "sweep.algorithm.params")
    ovr_fixed, ovr_axes = _split_axes(algorithm.get("overrides"), "sweep.algorithm.overrides")
    seeds = parse_seed_spec(document.get("seeds", 0))

    tags = document.get("tags") or {}
    if not isinstance(tags, Mapping):
        raise SweepFileError(f"sweep.tags must be a mapping, got {type(tags).__name__}")

    # Axis order is the contract: matrix slowest, then deployment params,
    # algorithm params, overrides, and seeds fastest -- row-major.
    axes: List[Tuple[str, List[Any]]] = (
        list(matrix_axes) + list(dep_axes) + list(alg_axes) + list(ovr_axes) + [("seed", list(seeds))]
    )
    seen_axis_names = set()
    for axis_name, _ in axes:
        if axis_name in seen_axis_names:
            raise SweepFileError(
                f"axis name {axis_name!r} is swept in more than one section; "
                f"rename the matrix variable or the parameter"
            )
        seen_axis_names.add(axis_name)

    name = str(document.get("name", default_name))
    specs: List[RunSpec] = []
    for combo in itertools.product(*(values for _, values in axes)):
        variables = dict(zip((axis_name for axis_name, _ in axes), combo))
        dep_params = _expand_mapping(dep_fixed, variables, "deployment.params")
        alg_params = _expand_mapping(alg_fixed, variables, "algorithm.params")
        overrides = _expand_mapping(ovr_fixed, variables, "algorithm.overrides")
        for axis_name, _ in dep_axes:
            dep_params[axis_name] = variables[axis_name]
        for axis_name, _ in alg_axes:
            alg_params[axis_name] = variables[axis_name]
        for axis_name, _ in ovr_axes:
            overrides[axis_name] = variables[axis_name]
        spec_tags = _expand_mapping(tags, variables, "tags")
        for axis_name, _ in matrix_axes:
            spec_tags.setdefault(axis_name, variables[axis_name])
        cell_backend = str(_substitute(backend, variables, "sweep.deployment.backend"))
        if cell_backend not in BACKENDS:
            raise SweepFileError(
                f"unknown sweep.deployment.backend {cell_backend!r} "
                f"(expanded from {backend!r}); available: {', '.join(sorted(BACKENDS))}"
            )
        try:
            spec = RunSpec(
                deployment=DeploymentSpec(
                    kind=str(deployment["kind"]),
                    params=dep_params,
                    seed=int(variables["seed"]),
                    backend=cell_backend,
                ),
                algorithm=AlgorithmSpec(
                    name=str(algorithm["name"]),
                    preset=preset,
                    overrides=overrides,
                    params=alg_params,
                ),
                tags=spec_tags,
            )
        except (TypeError, ValueError) as exc:
            raise SweepFileError(f"sweep cell {variables!r} is invalid: {exc}") from exc
        specs.append(spec)

    return SweepFile(
        name=name,
        specs=tuple(specs),
        axes=tuple((axis_name, tuple(values)) for axis_name, values in axes),
    )


def load_sweep_file(path: Union[str, os.PathLike]) -> SweepFile:
    """Parse and compile a sweep file (``.yaml``/``.yml``/``.json``).

    The default sweep name is the file stem; a ``name`` field overrides it.
    YAML files raise a clear error where PyYAML is not installed.
    """
    path = Path(path)
    if not path.exists():
        raise SweepFileError(f"sweep file not found: {path}")
    text = path.read_text(encoding="utf-8")
    suffix = path.suffix.lower()
    if suffix in (".yaml", ".yml"):
        try:  # optional dependency, imported only for YAML files
            import yaml
        except ImportError:  # pragma: no cover - exercised only where PyYAML is absent
            raise SweepFileError(
                f"cannot parse {path.name}: PyYAML is not installed "
                f"(pip install pyyaml, or use a .json sweep file)"
            ) from None
        try:
            document = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise SweepFileError(f"{path.name} is not valid YAML: {exc}") from exc
    elif suffix == ".json":
        try:
            document = json.loads(text)
        except ValueError as exc:
            raise SweepFileError(f"{path.name} is not valid JSON: {exc}") from exc
    else:
        raise SweepFileError(
            f"unsupported sweep file extension {path.suffix!r} (expected .yaml, .yml or .json)"
        )
    return compile_sweep(document, default_name=path.stem)
