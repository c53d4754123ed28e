"""Reporters for analysis runs: line-per-finding text and machine JSON."""

from __future__ import annotations

import json

from repro.analysis.driver import AnalysisReport


def render_text(report: AnalysisReport) -> str:
    """Human-readable report: one line per finding plus a summary line."""
    lines = [finding.render() for finding in report.findings]
    noun = "file" if report.files == 1 else "files"
    summary = (
        f"{report.files} {noun} checked: "
        f"{report.errors} error(s), {report.warnings} warning(s), "
        f"{report.suppressed} suppressed"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    """Machine-readable report (the ``--format json`` CLI output)."""
    payload = {
        "files": report.files,
        "errors": report.errors,
        "warnings": report.warnings,
        "suppressed": report.suppressed,
        "ok": report.ok,
        "findings": [finding.to_dict() for finding in report.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


__all__ = ["render_json", "render_text"]
