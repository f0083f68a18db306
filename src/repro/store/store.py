"""The content-addressed experiment store: persisted, integrity-checked runs.

:class:`ExperimentStore` is an on-disk dictionary from canonical spec
hashes (:func:`repro.store.spec_key`) to executed results.  One entry is
one directory::

    <root>/objects/<key[:2]>/<key>/
        manifest.json     # kind, spec, file checksums, sizes, timestamps
        payload.json      # the deterministic result payload (JSON)
        columns.npz       # per-epoch columnar arrays (dynamic runs only)

plus ``<root>/manifests/<name>.json`` -- *named collections* (e.g. one per
sweep) that list the member keys of a logical experiment, and ``<root>/tmp``
for staging.  Entries are written atomically (staged under ``tmp`` and
renamed into place), every data file's SHA-256 is recorded in the entry
manifest and re-verified on load, and a checksum mismatch or truncated
file raises :class:`StoreIntegrityError` with a recovery hint instead of
silently reusing a damaged artifact.

The store is what makes sweeps resumable and warm re-runs near-instant:
:func:`repro.api.run`, :func:`~repro.api.run_many`,
:func:`~repro.api.run_grid` and :func:`~repro.api.run_dynamic` all accept
``store=`` / ``cache=`` and skip already-computed cells, returning results
bit-identical to cold execution (property-tested in
``tests/test_store.py``).
"""

from __future__ import annotations

import ctypes
import errno as _errno
import hashlib
import json
import os
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Union

import numpy as np

from .. import __version__
from ..api.executor import RunResult
from ..api.specs import RunSpec
from .hashing import STORE_FORMAT_VERSION, spec_key
from .locking import FileLock, pid_alive

__all__ = ["ExperimentStore", "StoreError", "StoreIntegrityError", "resolve_store"]

#: How long (seconds) a staging dir with an *unparsable* or dead PID may
#: linger before :meth:`ExperimentStore.gc` treats it as abandoned debris.
STAGE_GRACE_SECONDS = 3600.0

#: Valid ``cache=`` modes accepted by the executor entry points.
CACHE_MODES = ("reuse", "refresh", "off")


class StoreError(RuntimeError):
    """Base class for artifact-store failures."""


class StoreIntegrityError(StoreError):
    """A stored artifact is damaged (checksum mismatch, truncation, bad JSON).

    Raised instead of silently reusing the entry.  The message names the
    offending file and how to recover (``repro-sim store gc`` deletes the
    damaged entry; ``cache="refresh"`` recomputes and overwrites it).
    """


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _json_dump(data: Any, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


class ExperimentStore:
    """A content-addressed on-disk store of executed experiment results.

    Parameters
    ----------
    root:
        Directory holding the store (created on first use).  An existing
        non-store directory is refused rather than colonized, unless it is
        empty.

    Entries are keyed by :func:`repro.store.spec_key`; the store never
    inspects result *values* to build keys, so two runs of the same spec
    always land on the same entry.  All methods taking ``spec_or_key``
    accept either a :class:`~repro.api.specs.RunSpec` or a 64-char key.
    """

    MARKER = "store.json"

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        marker = self.root / self.MARKER
        if self.root.exists() and not marker.exists():
            occupied = any(self.root.iterdir()) if self.root.is_dir() else True
            if occupied:
                raise StoreError(
                    f"{self.root} exists but is not an experiment store "
                    f"(missing {self.MARKER}); refusing to write into it"
                )
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "objects").mkdir(exist_ok=True)
        (self.root / "manifests").mkdir(exist_ok=True)
        (self.root / "tmp").mkdir(exist_ok=True)
        if not marker.exists():
            _json_dump({"format": STORE_FORMAT_VERSION, "package": __version__}, marker)
        # Cross-process advisory lock serializing store mutations (entry
        # commits, manifest updates, gc, removal).  Staging itself is
        # lock-free: stage names embed the writer's PID, so writers never
        # collide there and only the publish/collect steps contend.
        self._lock = FileLock(self.root / ".lock")

    # ------------------------------------------------------------------ #
    # Keys and paths.
    # ------------------------------------------------------------------ #

    def key_for(self, spec_or_key: Union[RunSpec, str]) -> str:
        """The full content address for a spec (or an already-computed key)."""
        if isinstance(spec_or_key, RunSpec):
            return spec_key(spec_or_key)
        key = str(spec_or_key)
        if len(key) != 64 or not all(c in "0123456789abcdef" for c in key):
            raise StoreError(f"not a store key (expected 64 hex chars): {key!r}")
        return key

    def _entry_dir(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / key

    def resolve_prefix(self, prefix: str) -> str:
        """Expand an unambiguous key prefix (CLI convenience) to the full key."""
        prefix = str(prefix).lower()
        matches = [key for key in self.keys() if key.startswith(prefix)]
        if not matches:
            raise KeyError(f"no store entry matches key prefix {prefix!r}")
        if len(matches) > 1:
            raise KeyError(
                f"key prefix {prefix!r} is ambiguous: "
                + ", ".join(key[:12] for key in sorted(matches))
            )
        return matches[0]

    def __contains__(self, spec_or_key: object) -> bool:
        if not isinstance(spec_or_key, (RunSpec, str)):
            return False
        return (self._entry_dir(self.key_for(spec_or_key)) / "manifest.json").exists()

    def keys(self) -> List[str]:
        """All entry keys currently in the store, sorted."""
        result = []
        objects = self.root / "objects"
        for shard in sorted(objects.iterdir()) if objects.exists() else []:
            if shard.is_dir():
                result.extend(entry.name for entry in sorted(shard.iterdir()) if entry.is_dir())
        return result

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------------ #
    # Entry manifests.
    # ------------------------------------------------------------------ #

    def manifest(self, spec_or_key: Union[RunSpec, str]) -> Dict[str, Any]:
        """The integrity manifest of one entry.

        Raises ``KeyError`` on a miss (no entry directory) and
        :class:`StoreIntegrityError` on an *incomplete* entry (directory
        present but no manifest -- debris from an interrupted write or
        removal), which :meth:`gc` knows how to clean up.
        """
        key = self.key_for(spec_or_key)
        path = self._entry_dir(key) / "manifest.json"
        if not path.exists():
            if path.parent.exists():
                raise StoreIntegrityError(
                    f"store entry {key[:12]}... is incomplete (directory present but "
                    f"manifest.json missing -- an interrupted write or removal); "
                    f"delete it with 'repro-sim store gc' or recompute with cache='refresh'"
                )
            raise KeyError(f"no store entry for key {key[:12]}...")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as exc:
            raise StoreIntegrityError(
                f"store entry {key[:12]}... has an unreadable manifest ({exc}); "
                f"delete it with 'repro-sim store gc' or recompute with cache='refresh'"
            ) from exc
        if not isinstance(manifest, dict) or "files" not in manifest or "kind" not in manifest:
            raise StoreIntegrityError(
                f"store entry {key[:12]}... has a malformed manifest (missing kind/files); "
                f"delete it with 'repro-sim store gc' or recompute with cache='refresh'"
            )
        return manifest

    def entries(self) -> List[Dict[str, Any]]:
        """All entry manifests, sorted by creation time (oldest first)."""
        manifests = [self.manifest(key) for key in self.keys()]
        return sorted(manifests, key=lambda m: (m.get("created", 0.0), m.get("key", "")))

    def verify(self, spec_or_key: Union[RunSpec, str]) -> Dict[str, Any]:
        """Re-checksum every file of one entry; returns the manifest.

        Raises :class:`StoreIntegrityError` naming the first damaged file.
        """
        key = self.key_for(spec_or_key)
        manifest = self.manifest(key)
        entry_dir = self._entry_dir(key)
        for name, meta in sorted(manifest["files"].items()):
            path = entry_dir / name
            if not path.exists():
                raise StoreIntegrityError(
                    f"store entry {key[:12]}... is missing file {name!r}; "
                    f"delete it with 'repro-sim store gc' or recompute with cache='refresh'"
                )
            actual = _sha256(path)
            if actual != meta.get("sha256"):
                raise StoreIntegrityError(
                    f"store entry {key[:12]}... file {name!r} is corrupted "
                    f"(checksum mismatch: recorded {str(meta.get('sha256'))[:12]}..., "
                    f"found {actual[:12]}...; {path.stat().st_size} bytes on disk, "
                    f"{meta.get('bytes')} recorded); delete it with 'repro-sim store gc' "
                    f"or recompute with cache='refresh'"
                )
        return manifest

    def verify_all(self) -> Dict[str, Any]:
        """Re-checksum every entry; report damage without deleting anything.

        The non-destructive audit counterpart of :meth:`gc` (which removes
        what it finds broken): every key is pushed through :meth:`verify`
        and failures are *collected*, not raised.  Returns ``{"checked",
        "ok", "corrupt"}`` where ``corrupt`` maps each damaged key to its
        :class:`StoreIntegrityError` message (which names the damaged file
        and the recovery options).
        """
        corrupt: Dict[str, str] = {}
        keys = self.keys()
        for key in keys:
            try:
                self.verify(key)
            except StoreIntegrityError as exc:
                corrupt[key] = str(exc)
        return {"checked": len(keys), "ok": len(keys) - len(corrupt), "corrupt": corrupt}

    # ------------------------------------------------------------------ #
    # Writing entries.
    # ------------------------------------------------------------------ #

    def _install(self, key: str, kind: str, spec: RunSpec, files: Dict[str, bytes],
                 extra: Optional[Dict[str, Any]] = None, overwrite: bool = False) -> str:
        """Atomically write one entry: stage under ``tmp``, rename into place.

        Staging happens lock-free (the stage name embeds this process's
        PID, so concurrent writers never collide); only the publish step --
        checking/clearing the destination and renaming the stage into it --
        runs under the store's cross-process lock, so two processes
        committing the same key cannot half-delete each other's entry and
        :meth:`gc` never observes a torn rename.

        Overwrites (the ``cache="refresh"`` path) swap the staged directory
        in *atomically* where the platform allows (``renameat2`` with
        ``RENAME_EXCHANGE`` on Linux), because concurrent readers take no
        lock: a reader racing a refresh must always resolve a complete
        entry -- old or new -- and never a half-deleted one
        (``tests/test_store_concurrency.py`` pins this).
        """
        entry_dir = self._entry_dir(key)
        if (entry_dir / "manifest.json").exists() and not overwrite:
            return key
        stage = self.root / "tmp" / f"{key}.{os.getpid()}"
        if stage.exists():
            shutil.rmtree(stage)
        stage.mkdir(parents=True)
        try:
            recorded: Dict[str, Dict[str, Any]] = {}
            for name, blob in sorted(files.items()):
                path = stage / name
                with open(path, "wb") as handle:
                    handle.write(blob)
                recorded[name] = {"sha256": _sha256(path), "bytes": len(blob)}
            manifest: Dict[str, Any] = {
                "format": STORE_FORMAT_VERSION,
                "package": __version__,
                "key": key,
                "kind": kind,
                "spec": spec.to_dict(),
                "files": recorded,
                "created": time.time(),
            }
            manifest.update(extra or {})
            _json_dump(manifest, stage / "manifest.json")
            if os.environ.get("REPRO_FAULT_PLAN"):
                # Fault-injection hook (no-op unless a chaos plan targets
                # this spec): damages the staged payload *after* checksums
                # were recorded, so verification must catch it later.
                from ..testing.faults import corrupt_staged_entry

                corrupt_staged_entry(stage, spec)
            entry_dir.parent.mkdir(parents=True, exist_ok=True)
            with self._lock:
                if (entry_dir / "manifest.json").exists():
                    if not overwrite:
                        return key
                    # Refreshing a live entry: readers in *other* processes
                    # do not hold this lock, so the old entry must never be
                    # half-deleted under them.  Swap the staged directory in
                    # atomically (renameat2 RENAME_EXCHANGE); the displaced
                    # old entry lands on the stage path and the finally
                    # block sweeps it.  Readers resolve the old complete
                    # entry or the new complete one, never a torn husk.
                    if _exchange_paths(stage, entry_dir):
                        return key
                    # Exchange unavailable (non-Linux kernel or filesystem):
                    # rename the old entry aside, then rename the stage in.
                    # The entry is briefly a clean miss, never partial; the
                    # aside name embeds our PID so a concurrent gc keeps it
                    # while we are alive.
                    aside = self.root / "tmp" / f"{key}.displaced.{os.getpid()}"
                    if aside.exists():
                        shutil.rmtree(aside)
                    os.replace(entry_dir, aside)
                    try:
                        os.replace(stage, entry_dir)
                    finally:
                        shutil.rmtree(aside, ignore_errors=True)
                    return key
                elif entry_dir.exists():
                    # Incomplete debris (interrupted write or removal): a
                    # fresh result is in hand, so replace the husk instead
                    # of keeping the entry permanently un-persistable.
                    shutil.rmtree(entry_dir)
                try:
                    os.replace(stage, entry_dir)
                except OSError:
                    # A concurrent writer won the rename race; its entry is
                    # equivalent (same key => same payload), keep it.
                    if not (entry_dir / "manifest.json").exists():
                        raise
        finally:
            if stage.exists():
                shutil.rmtree(stage, ignore_errors=True)
        return key

    def put_result(self, result: RunResult, overwrite: bool = False) -> str:
        """Persist one :class:`~repro.api.executor.RunResult`; returns its key.

        An existing entry under the same key is kept untouched unless
        ``overwrite=True`` (the ``cache="refresh"`` path): identical keys
        imply identical payloads, so rewriting is pure churn.
        """
        key = spec_key(result.spec)
        payload = json.dumps(result.to_dict(), indent=2, sort_keys=True).encode("utf-8")
        return self._install(
            key,
            "run",
            result.spec,
            {"payload.json": payload},
            extra={"elapsed": float(result.elapsed), "label": _label(result.spec)},
            overwrite=overwrite,
        )

    def put_epochs(self, epochs: "Any", overwrite: bool = False) -> str:
        """Persist a dynamic-run :class:`~repro.dynamics.runner.EpochSet`.

        The per-epoch measurements are stored *columnar* in ``columns.npz``
        (one array per rounds/checks/metrics/events key, plus epoch indices
        and timings); the JSON payload carries the spec.  Scenarios whose
        epochs disagree on their key sets (possible for plugin algorithms)
        fall back to a plain JSON epoch list.
        """
        key = spec_key(epochs.spec)
        columns = _epoch_columns(epochs)
        payload: Dict[str, Any] = {"spec": epochs.spec.to_dict()}
        files: Dict[str, bytes] = {}
        if columns is None:
            payload["epochs"] = [result.to_dict() for result in epochs.results]
        else:
            import io

            buffer = io.BytesIO()
            np.savez_compressed(buffer, **columns)
            files["columns.npz"] = buffer.getvalue()
        files["payload.json"] = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
        return self._install(
            key,
            "epochs",
            epochs.spec,
            files,
            extra={"epochs": len(epochs), "label": _label(epochs.spec)},
            overwrite=overwrite,
        )

    # ------------------------------------------------------------------ #
    # Loading entries.
    # ------------------------------------------------------------------ #

    def _with_refresh_retry(self, key: str, attempt):
        """Run one load attempt, absorbing races with a concurrent refresh.

        A refresh replaces the whole entry directory in one atomic rename,
        but a *reader* makes several file reads (manifest, checksums,
        payload) that can straddle that swap and mix old-manifest with
        new-files -- a spurious :class:`StoreIntegrityError`.  Detect that
        case by fingerprinting the manifest file's identity (inode, mtime,
        size) before each attempt: if it changed by the time the attempt
        failed, a refresh raced us and the retry sees a consistent entry.
        Genuine corruption leaves the identity stable and re-raises at
        once, so damaged entries still fail loudly.
        """
        for _ in range(4):
            token = _entry_token(self._entry_dir(key))
            try:
                return attempt()
            except StoreIntegrityError:
                if _entry_token(self._entry_dir(key)) == token:
                    raise
        return attempt()

    def load_result(self, spec_or_key: Union[RunSpec, str]) -> Optional[RunResult]:
        """Load a static run by spec or key; ``None`` on a miss.

        The entry's checksums are verified first: a damaged entry raises
        :class:`StoreIntegrityError` instead of returning (or recomputing)
        anything.  Loaded results carry ``cached=True``.  Reads are safe
        against concurrent ``cache="refresh"`` writers: the entry resolves
        to a complete artifact (old or new), never a torn one.
        """
        key = self.key_for(spec_or_key)
        if key not in self:
            return None
        return self._with_refresh_retry(key, lambda: self._load_result_once(key))

    def _load_result_once(self, key: str) -> RunResult:
        manifest = self.verify(key)
        if manifest["kind"] != "run":
            raise StoreError(
                f"store entry {key[:12]}... holds a {manifest['kind']!r} artifact, "
                f"not a static run (dynamic specs load via load_epochs)"
            )
        data = self._read_payload(key)
        result = RunResult.from_dict(data)
        return _mark_cached(result)

    def load_epochs(self, spec_or_key: Union[RunSpec, str]):
        """Load a dynamic-run :class:`EpochSet` by spec or key; ``None`` on a miss.

        Same refresh-safety as :meth:`load_result`: racing a concurrent
        overwrite yields a complete old or new artifact, never a torn one.
        """
        key = self.key_for(spec_or_key)
        if key not in self:
            return None
        return self._with_refresh_retry(key, lambda: self._load_epochs_once(key))

    def _load_epochs_once(self, key: str):
        from ..dynamics.runner import EpochResult, EpochSet

        manifest = self.verify(key)
        if manifest["kind"] != "epochs":
            raise StoreError(
                f"store entry {key[:12]}... holds a {manifest['kind']!r} artifact, "
                f"not a dynamic run (static specs load via load_result)"
            )
        payload = self._read_payload(key)
        spec = RunSpec.from_dict(payload["spec"])
        npz_path = self._entry_dir(key) / "columns.npz"
        if npz_path.exists():
            results = _epochs_from_columns(npz_path, key, EpochResult)
        else:
            results = [
                EpochResult(
                    epoch=int(entry["epoch"]),
                    rounds={k: int(v) for k, v in entry["rounds"].items()},
                    checks={k: bool(v) for k, v in entry["checks"].items()},
                    metrics={k: float(v) for k, v in entry["metrics"].items()},
                    events={k: int(v) for k, v in entry["events"].items()},
                    elapsed=float(entry.get("elapsed", 0.0)),
                )
                for entry in payload["epochs"]
            ]
        return EpochSet(spec=spec, results=results)

    def get(self, spec_or_key: Union[RunSpec, str]):
        """Load whatever an entry holds (``RunResult`` or ``EpochSet``).

        Raises ``KeyError`` on a miss (use :meth:`load_result` /
        :meth:`load_epochs` for ``None``-on-miss semantics).
        """
        key = self.key_for(spec_or_key)
        manifest = self.manifest(key)  # raises KeyError on a miss
        if manifest["kind"] == "epochs":
            return self.load_epochs(key)
        return self.load_result(key)

    def _read_payload(self, key: str) -> Dict[str, Any]:
        path = self._entry_dir(key) / "payload.json"
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError) as exc:
            raise StoreIntegrityError(
                f"store entry {key[:12]}... has an unreadable payload.json ({exc}); "
                f"delete it with 'repro-sim store gc' or recompute with cache='refresh'"
            ) from exc

    def remove(self, spec_or_key: Union[RunSpec, str]) -> None:
        """Delete one entry (no error if absent).

        Runs under the store lock so a removal never interleaves with a
        concurrent commit of the same key (which could otherwise tear the
        freshly-renamed entry in half).
        """
        entry_dir = self._entry_dir(self.key_for(spec_or_key))
        with self._lock:
            if entry_dir.exists():
                shutil.rmtree(entry_dir)

    # ------------------------------------------------------------------ #
    # Named collections (sweep manifests).
    # ------------------------------------------------------------------ #

    def write_manifest(self, name: str, keys: Sequence[str],
                       meta: Optional[Dict[str, Any]] = None) -> Path:
        """Write a named collection listing the member keys of an experiment.

        Collections are how multi-cell experiments (sweeps, grids) stay
        discoverable and how :meth:`gc` knows which entries are *live*:
        pruning never deletes an entry referenced by any collection.
        Rewriting an existing name replaces it.
        """
        safe = str(name)
        if not safe or any(sep in safe for sep in ("/", "\\", "..")):
            raise StoreError(f"invalid manifest name {safe!r}")
        data = {
            "name": safe,
            "keys": sorted({self.key_for(key) for key in keys}),
            "created": time.time(),
            "package": __version__,
        }
        data.update(meta or {})
        path = self.root / "manifests" / f"{safe}.json"
        stage = self.root / "tmp" / f"manifest-{safe}.{os.getpid()}.json"
        _json_dump(data, stage)
        with self._lock:
            os.replace(stage, path)
        return path

    def read_manifest(self, name: str) -> Dict[str, Any]:
        """Load one named collection (raises ``KeyError`` if absent)."""
        path = self.root / "manifests" / f"{name}.json"
        if not path.exists():
            raise KeyError(
                f"no manifest named {name!r}; available: "
                + (", ".join(self.manifest_names()) or "(none)")
            )
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def manifest_names(self) -> List[str]:
        """Sorted names of all collections in the store."""
        directory = self.root / "manifests"
        return sorted(path.stem for path in directory.glob("*.json"))

    def referenced_keys(self) -> Set[str]:
        """The union of keys referenced by any named collection."""
        referenced: Set[str] = set()
        for name in self.manifest_names():
            referenced.update(self.read_manifest(name).get("keys", []))
        return referenced

    # ------------------------------------------------------------------ #
    # Maintenance.
    # ------------------------------------------------------------------ #

    def gc(self, prune_unreferenced: bool = False) -> Dict[str, Any]:
        """Collect garbage; returns a report of what was (not) removed.

        Removes *abandoned* staging debris and entries that fail
        verification (corrupt or incomplete) -- *except* corrupt entries
        referenced by a live collection, which are reported under
        ``"corrupt_kept"`` but never deleted (a referenced artifact is
        someone's data; deleting it is a human decision).
        ``prune_unreferenced=True`` additionally removes healthy entries no
        collection references.

        The whole pass runs under the store's cross-process lock, and
        staging items are only collected when their embedded writer PID is
        dead (or unparsable and older than :data:`STAGE_GRACE_SECONDS`):
        a live writer's mid-stage entry is reported under
        ``"staging_kept_live"`` and left alone, so gc racing a concurrent
        commit can never half-delete work in flight.
        """
        with self._lock:
            referenced = self.referenced_keys()
            removed: List[str] = []
            corrupt_kept: List[str] = []
            pruned: List[str] = []
            swept = 0
            kept_live = 0
            tmp = self.root / "tmp"
            for item in list(tmp.iterdir()) if tmp.exists() else []:
                if _stage_in_use(item):
                    kept_live += 1
                    continue
                swept += 1
                if item.is_dir():
                    shutil.rmtree(item, ignore_errors=True)
                else:
                    item.unlink()
            for key in self.keys():
                try:
                    self.verify(key)
                except StoreError:
                    if key in referenced:
                        corrupt_kept.append(key)
                    else:
                        self.remove(key)
                        removed.append(key)
                    continue
                if prune_unreferenced and key not in referenced:
                    self.remove(key)
                    pruned.append(key)
            return {
                "removed_corrupt": removed,
                "corrupt_kept": corrupt_kept,
                "pruned_unreferenced": pruned,
                "staging_debris": swept,
                "staging_kept_live": kept_live,
                "remaining": len(self),
            }

    def stats(self) -> Dict[str, Any]:
        """Aggregate store statistics (entry counts, bytes, kinds)."""
        total_bytes = 0
        kinds: Dict[str, int] = {}
        keys = self.keys()
        for key in keys:
            entry_dir = self._entry_dir(key)
            for path in entry_dir.iterdir():
                total_bytes += path.stat().st_size
            try:
                kind = self.manifest(key)["kind"]
            except StoreError:
                kind = "(corrupt)"
            kinds[kind] = kinds.get(kind, 0) + 1
        return {
            "root": str(self.root),
            "entries": len(keys),
            "kinds": kinds,
            "manifests": self.manifest_names(),
            "bytes": total_bytes,
        }

    def __repr__(self) -> str:
        return f"ExperimentStore({str(self.root)!r}, {len(self)} entries)"


# ---------------------------------------------------------------------- #
# Helpers.
# ---------------------------------------------------------------------- #


def resolve_store(store: Union["ExperimentStore", str, os.PathLike, None]) -> Optional[ExperimentStore]:
    """Coerce a ``store=`` argument (path or instance or ``None``) to a store."""
    if store is None or isinstance(store, ExperimentStore):
        return store
    return ExperimentStore(store)


#: ``renameat2`` flag: atomically exchange the two paths (Linux >= 3.15).
_RENAME_EXCHANGE = 2
_AT_FDCWD = -100
_LIBC: Optional[Any] = None


def _exchange_paths(new: Path, old: Path) -> bool:
    """Atomically swap two directories; ``False`` if the platform cannot.

    Uses ``renameat2(..., RENAME_EXCHANGE)`` via libc on Linux: after the
    call, ``old`` holds the staged content and ``new`` holds the displaced
    entry, with no instant at which either path is absent or partial.
    Returns ``False`` (caller falls back to rename-aside) when libc or the
    filesystem lacks the syscall.
    """
    global _LIBC
    if _LIBC is None:
        try:
            _LIBC = ctypes.CDLL(None, use_errno=True)
        except (OSError, TypeError):
            _LIBC = False
    if not _LIBC or not hasattr(_LIBC, "renameat2"):
        return False
    rc = _LIBC.renameat2(
        _AT_FDCWD, os.fsencode(new), _AT_FDCWD, os.fsencode(old), _RENAME_EXCHANGE
    )
    if rc == 0:
        return True
    code = ctypes.get_errno()
    if code in (_errno.EINVAL, _errno.ENOSYS, _errno.ENOTSUP):
        return False  # kernel or filesystem does not support the exchange
    raise OSError(code, os.strerror(code), str(new), None, str(old))


def _entry_token(entry_dir: Path) -> Optional[tuple]:
    """Identity fingerprint of an entry's manifest file (``None`` if absent).

    A refresh swaps in a different inode, so comparing tokens before and
    after a failed read distinguishes "a concurrent refresh raced us"
    (token changed -- retry) from genuine corruption (token stable --
    raise).
    """
    try:
        stat = os.stat(entry_dir / "manifest.json")
    except OSError:
        return None
    return (stat.st_ino, stat.st_mtime_ns, stat.st_size)


def _stage_pid(name: str) -> Optional[int]:
    """The writer PID embedded in a staging name, or ``None``.

    Stage names are ``<key>.<pid>`` (entry dirs) and
    ``manifest-<name>.<pid>.json`` (collection files); the PID is always
    the last dot-separated component once a ``.json`` suffix is stripped.
    """
    if name.endswith(".json"):
        name = name[: -len(".json")]
    _, _, tail = name.rpartition(".")
    try:
        pid = int(tail)
    except ValueError:
        return None
    return pid if pid > 0 else None


def _stage_in_use(item: Path) -> bool:
    """Whether a staging item may belong to a *live* writer (gc must keep it).

    True when the embedded PID is alive *and* the item's mtime is younger
    than :data:`STAGE_GRACE_SECONDS` (the mtime guard defuses PID reuse:
    a recycled PID cannot pin hours-old debris forever).  Items without a
    parsable PID were not written by this store's staging scheme and are
    always sweepable.
    """
    pid = _stage_pid(item.name)
    if pid is None:
        return False
    try:
        age = time.time() - item.stat().st_mtime
    except OSError:
        return False  # vanished mid-scan: nothing left to keep or sweep
    return pid_alive(pid) and age < STAGE_GRACE_SECONDS


def _label(spec: RunSpec) -> str:
    """One-line human description used by ``repro-sim store list``."""
    suffix = ""
    if spec.dynamics is not None:
        suffix = f" x {spec.dynamics.epochs} epochs ({spec.dynamics.mobility.kind})"
    return (
        f"{spec.algorithm.name} on {spec.deployment.kind} "
        f"seed {spec.deployment.seed}{suffix}"
    )


def _mark_cached(result: RunResult) -> RunResult:
    import dataclasses

    return dataclasses.replace(result, cached=True)


def _epoch_columns(epochs) -> Optional[Dict[str, np.ndarray]]:
    """Columnar arrays for an EpochSet, or ``None`` when key sets are ragged."""
    results = list(epochs.results)
    if not results:
        return None
    columns: Dict[str, np.ndarray] = {
        "epoch": np.array([r.epoch for r in results], dtype=np.int64),
        "elapsed": np.array([r.elapsed for r in results], dtype=np.float64),
    }
    for column, dtype in (("rounds", np.int64), ("checks", np.bool_),
                          ("metrics", np.float64), ("events", np.int64)):
        keys = set(getattr(results[0], column))
        if any(set(getattr(r, column)) != keys for r in results):
            return None
        for key in sorted(keys):
            columns[f"{column}:{key}"] = np.array(
                [getattr(r, column)[key] for r in results], dtype=dtype
            )
    return columns


def _epochs_from_columns(path: Path, key: str, epoch_result_cls) -> List[Any]:
    """Rebuild per-epoch results from a ``columns.npz`` file."""
    try:
        with np.load(path) as npz:
            columns = {name: npz[name] for name in npz.files}
    except (OSError, ValueError, KeyError) as exc:
        raise StoreIntegrityError(
            f"store entry {key[:12]}... has an unreadable columns.npz ({exc}); "
            f"delete it with 'repro-sim store gc' or recompute with cache='refresh'"
        ) from exc
    count = len(columns["epoch"])
    per_column: Dict[str, Dict[str, np.ndarray]] = {"rounds": {}, "checks": {}, "metrics": {}, "events": {}}
    for name, values in columns.items():
        if ":" in name:
            column, entry_key = name.split(":", 1)
            per_column[column][entry_key] = values
    results = []
    for i in range(count):
        results.append(
            epoch_result_cls(
                epoch=int(columns["epoch"][i]),
                rounds={k: int(v[i]) for k, v in sorted(per_column["rounds"].items())},
                checks={k: bool(v[i]) for k, v in sorted(per_column["checks"].items())},
                metrics={k: float(v[i]) for k, v in sorted(per_column["metrics"].items())},
                events={k: int(v[i]) for k, v in sorted(per_column["events"].items())},
                elapsed=float(columns["elapsed"][i]),
            )
        )
    return results
