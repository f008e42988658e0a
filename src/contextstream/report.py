"""Validation reports: problems are collected, not raised, so callers can
decide whether a document is usable."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    code: str
    message: str
    subject: str | None = None

    def __str__(self) -> str:
        if self.subject is None:
            return f"[{self.code}] {self.message}"
        return f"[{self.code}] {self.subject}: {self.message}"


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)

    def add(self, code: str, message: str, subject: str | None = None) -> None:
        self.findings.append(Finding(code, message, subject))

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        if self.ok:
            return "no findings"
        return f"{len(self.findings)} finding(s): " + "; ".join(str(f) for f in self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    def __iter__(self):
        return iter(self.findings)
