"""Explainable reports: the reporting/docs subsystem.

The paper's pitch is diagnosis, not detection: every finding ships with
*why it hurts* and *how to fix it* (§1, §6).  This package turns that
knowledge — declared as :class:`~repro.rules.base.RuleDoc` metadata on
every rule — into consumable artifacts:

* :mod:`repro.reporting.model` — the renderer-independent report model
  (:class:`ReportDocument` / :class:`Finding`) every emitter consumes;
* :mod:`repro.reporting.markdown` — GitHub-flavoured Markdown reports;
* :mod:`repro.reporting.html` — self-contained HTML pages;
* :mod:`repro.reporting.sarif` — SARIF 2.1.0 logs, so findings surface as
  native annotations in GitHub/GitLab CI and SARIF-aware editors;
* :mod:`repro.reporting.reference` — the generated per-rule reference
  (``docs/rules/``) behind ``sqlcheck docs`` / ``sqlcheck docs --check``.

The CLI (``--format markdown|html|sarif``), the REST API (``format`` in
the request body), and :func:`render_report` / :func:`render_batch_report`
below are thin wrappers over these pieces.
"""
from __future__ import annotations

from ..core.sqlcheck import BatchReport, SQLCheckReport
from ..rules.registry import RuleRegistry, default_registry
from .html import render_html
from .markdown import render_markdown
from .model import (
    ALL_FORMATS,
    RICH_FORMATS,
    TEXT_FORMATS,
    Finding,
    ReportDocument,
    build_document,
    build_documents,
)
from .reference import (
    GENERATED_MARKER,
    check_reference,
    index_page,
    reference_pages,
    rule_page,
    write_reference,
)
from .sarif import SARIF_SCHEMA, SARIF_VERSION, render_sarif, severity_level, to_sarif

_RENDERERS = {"markdown": render_markdown, "html": render_html, "sarif": render_sarif}


def _render_documents(
    documents: "list[ReportDocument]",
    fmt: str,
    registry: "RuleRegistry | None",
    top: int,
) -> str:
    """Shared dispatch for the render entry points: one place owns the
    unknown-format error, the SARIF-skips-truncation rule, and the
    renderer table."""
    renderer = _RENDERERS.get(fmt)
    if renderer is None:
        raise ValueError(f"unknown report format {fmt!r} (expected one of {RICH_FORMATS})")
    if fmt == "sarif":
        return render_sarif(documents, registry=registry)
    if top:
        for document in documents:
            document.truncate(top)
    return renderer(documents)


def render_report(
    report: SQLCheckReport,
    fmt: str,
    *,
    registry: "RuleRegistry | None" = None,
    source: "str | None" = None,
    include_stats: bool = False,
    top: int = 0,
    workload: "dict | None" = None,
) -> str:
    """Render one report in a rich format (``markdown`` / ``html`` / ``sarif``).

    ``top`` keeps only the N highest-impact findings for markdown/html;
    SARIF always carries the full result set (consumers filter on
    level/rank themselves).  ``workload`` attaches ingestion provenance
    (distinct/total statements, log format, degraded-line counts) so rich
    formats surface it exactly like the JSON ``workload`` block.
    """
    # Resolved once: the document and the SARIF rules block read the same
    # registry, and building the default one is not free.
    registry = registry if registry is not None else default_registry()
    document = build_document(
        report,
        registry=registry,
        source=source,
        include_stats=include_stats,
        workload=workload,
    )
    return _render_documents([document], fmt, registry, top)


def render_batch_report(
    batch: BatchReport,
    fmt: str,
    *,
    registry: "RuleRegistry | None" = None,
    include_stats: bool = False,
    top: int = 0,
) -> str:
    """Render a batch (one section per corpus) in a rich format.

    ``top`` truncates each corpus section to its N highest-impact findings
    for markdown/html; SARIF always carries the full result set.
    """
    registry = registry if registry is not None else default_registry()
    documents = build_documents(batch, registry=registry, include_stats=include_stats)
    return _render_documents(documents, fmt, registry, top)


__all__ = [
    "ALL_FORMATS",
    "Finding",
    "GENERATED_MARKER",
    "ReportDocument",
    "RICH_FORMATS",
    "SARIF_SCHEMA",
    "SARIF_VERSION",
    "TEXT_FORMATS",
    "build_document",
    "build_documents",
    "check_reference",
    "index_page",
    "reference_pages",
    "render_batch_report",
    "render_html",
    "render_markdown",
    "render_report",
    "render_sarif",
    "rule_page",
    "severity_level",
    "to_sarif",
    "write_reference",
]
