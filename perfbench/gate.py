"""The correctness gate: every benchmark operation passes through it.

An operation fails when its paper checks fail, when its deterministic
payload differs from the reference it must equal (the same deployment on
another backend, a direct ``api.run``, or the other grid paths), when it got
a non-2xx HTTP reply (429 included), or when it raised.  Timing never
decides whether the gate runs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional

#: The deterministic part of a result that must match across execution paths.
#: ``spec`` is left out because it names the backend (and, for sessions, the
#: state fingerprint) that legitimately differ between equal results.
BODY_KEYS = ("rounds", "checks", "metrics", "details")

#: How many problem descriptions a gate keeps for the report.
PROBLEMS_KEPT = 20


def body(result: Mapping[str, Any]) -> Dict[str, Any]:
    """The comparable payload of a ``RunResult.to_dict()``-shaped mapping."""
    return {key: result.get(key) for key in BODY_KEYS}


def canonical(value: Any) -> str:
    """Canonical JSON: sorted keys, exact float repr, so equal means bit-identical."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=True)


def checks_pass(result: Mapping[str, Any]) -> bool:
    """Whether every recorded paper check of a result passed."""
    checks = result.get("checks") or {}
    return bool(checks) and all(bool(v) for v in checks.values())


class Gate:
    """Counts attempted and failed operations and keeps the first problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        """Count one operation; returns ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < PROBLEMS_KEPT:
                self.problems.append(what)
        return ok

    def result(self, result: Mapping[str, Any], reference: Optional[str], what: str,
               checks: bool = True) -> bool:
        """Gate one result: its checks pass and its body matches ``reference``.

        ``reference`` is a :func:`canonical` body, or ``None`` when this
        result is the first of its group (it then only has to pass checks).
        ``checks=False`` is for Monte-Carlo baselines, whose success flag is
        an outcome they may legitimately miss within their round budget: the
        body (flags included) must still equal the reference.
        """
        if checks and not checks_pass(result):
            return self.record(False, f"{what}: paper checks failed {result.get('checks')}")
        if reference is not None and canonical(body(result)) != reference:
            return self.record(False, f"{what}: payload differs from its reference")
        return self.record(True, what)

    def http(self, status: int, what: str) -> bool:
        """Gate a reply status on its own (429 and every other non-2xx fail)."""
        return self.record(200 <= status < 300, f"{what}: HTTP {status}")

    @property
    def error_rate(self) -> float:
        """Failed / attempted (0 before any operation)."""
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        """True when at least one operation ran and none failed."""
        return self.attempted > 0 and self.failed == 0
