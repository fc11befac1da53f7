"""Structured pass/fail reports shared by every verification entry point.

A report is an ordered list of named checks plus free-form metadata.  Checks
marked required drive the overall verdict; informational checks (for example
multiplicativity of a characteristic morphism, which is allowed to fail) are
recorded but do not.  Rendering is deterministic: identical inputs produce
byte-identical text and JSON, except for the timing entry, which comparisons
must exclude.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import InputError

SCHEMA_VERSION = 1

# Meta keys that vary between identical runs and are excluded when comparing.
VOLATILE_META_KEYS = ("timing_ms",)


@dataclass
class Check:
    name: str
    ok: bool
    required: bool = True
    detail: str = ""


@dataclass
class Report:
    title: str
    checks: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add(self, name: str, ok: bool, *, required: bool = True, detail: str = "") -> bool:
        self.checks.append(Check(name, bool(ok), required, detail))
        return bool(ok)

    def extend(self, other: "Report", prefix: str = "") -> None:
        for c in other.checks:
            self.checks.append(Check(prefix + c.name, c.ok, c.required, c.detail))

    def get(self, name: str):
        for c in self.checks:
            if c.name == name:
                return c
        return None

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks if c.required)

    def first_failure(self):
        for c in self.checks:
            if c.required and not c.ok:
                return c
        return None

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "required": c.required, "detail": c.detail}
                for c in self.checks
            ],
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        """Rebuild a stored report; the overall verdict is recomputed.

        Data of another shape than ``to_dict`` writes is an InputError.
        """
        if not isinstance(data, dict):
            raise InputError("a stored report is a JSON object")
        checks, meta = data.get("checks", []), data.get("meta", {})
        if not isinstance(checks, list) or not isinstance(meta, dict):
            raise InputError("a stored report needs a list of checks and a meta object")
        report = cls(str(data.get("title", "")))
        for n, c in enumerate(checks, 1):
            if not isinstance(c, dict) or "name" not in c or "ok" not in c:
                raise InputError(f"stored check {n} is not an object with 'name' and 'ok'")
            report.add(
                str(c["name"]),
                bool(c["ok"]),
                required=bool(c.get("required", True)),
                detail=str(c.get("detail", "")),
            )
        report.meta = dict(meta)
        return report

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2, default=str) + "\n"

    def to_text(self) -> str:
        lines = [f"== {self.title} =="]
        width = max((len(c.name) for c in self.checks), default=0)
        for c in self.checks:
            status = "PASS" if c.ok else "FAIL"
            if not c.required:
                status = f"{status.lower()}"  # informational checks in lowercase
            line = f"  {status:<4} {c.name:<{width}}"
            if c.detail:
                line += f"  {c.detail}"
            lines.append(line.rstrip())
        for key in sorted(self.meta):
            lines.append(f"  {key}: {_meta_text(self.meta[key])}")
        lines.append(f"overall: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _meta_text(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_meta_text(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_meta_text(v)}" for k, v in value.items()) + "}"
    return str(value)


def comparable_dict(report_dict: dict) -> dict:
    """A copy with volatile fields removed, for determinism comparisons."""
    out = json.loads(json.dumps(report_dict, default=str))
    meta = out.get("meta", {})
    for key in VOLATILE_META_KEYS:
        meta.pop(key, None)
    return out
