"""Check reports and byte-stable golden-file persistence."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import GoldenMismatch


@dataclass
class CheckReport:
    """Outcome of a pass/fail verification with parameters and details.

    kind is "exact" (residual must be the literal "0/1" and golden comparison
    is byte-exact) or "numeric" (residual compared within a tolerance).
    """

    name: str
    params: dict
    passed: bool
    residual: str = "0/1"
    details: dict | None = None
    kind: str = "exact"

    def to_record(self) -> dict:
        rec = {
            "name": self.name,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "pass": self.passed,
            "residual": self.residual,
            "kind": self.kind,
        }
        if self.details is not None:
            rec["details"] = self.details
        return rec


def reports_to_bytes(reports: list[CheckReport]) -> bytes:
    records = [r.to_record() for r in reports]
    return (json.dumps(records, sort_keys=True, indent=1) + "\n").encode()


def write_golden(reports: list[CheckReport], path: str | Path) -> None:
    Path(path).write_bytes(reports_to_bytes(reports))


def _numeric_close(a: str, b: str, tolerance: float) -> bool:
    try:
        return abs(float(a) - float(b)) <= tolerance
    except ValueError:
        return a == b


def compare_golden(reports: list[CheckReport], path: str | Path,
                   tolerance: float = 1e-8) -> bool:
    """Exact comparison for exact checks, tolerance-aware for numeric ones.

    Raises GoldenMismatch naming the first differing record, or for a file that is
    not a JSON array of records.
    """
    try:
        stored = json.loads(Path(path).read_text())
    except ValueError as e:   # JSONDecodeError and UnicodeDecodeError
        raise GoldenMismatch(f"{path} is not JSON: {e}") from None
    if not (isinstance(stored, list) and all(isinstance(r, dict) for r in stored)):
        raise GoldenMismatch(f"{path} is not a JSON array of records")
    records = [r.to_record() for r in reports]
    if len(stored) != len(records):
        raise GoldenMismatch(f"record count {len(records)} != stored {len(stored)}")
    for new, old in zip(records, stored):
        label = new["name"]
        if new["name"] != old.get("name") or new["params"] != old.get("params"):
            raise GoldenMismatch(f"record identity differs at '{label}'")
        if new["kind"] != old.get("kind") or new["pass"] != old.get("pass"):
            raise GoldenMismatch(f"outcome differs at '{label}'")
        if new["kind"] == "exact":
            if new != old:
                raise GoldenMismatch(f"exact record differs at '{label}'")
        else:
            if not _numeric_close(new["residual"], old.get("residual", ""), tolerance):
                raise GoldenMismatch(
                    f"numeric residual differs at '{label}': "
                    f"{new['residual']} vs {old.get('residual')}")
    return True
