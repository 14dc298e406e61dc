"""SARIF 2.1.0 emitter.

SARIF (Static Analysis Results Interchange Format, OASIS) is the lingua
franca of CI code scanning: GitHub code scanning, GitLab SAST, and most
editors render SARIF results as native inline annotations.  This emitter
maps a sqlcheck run onto one SARIF ``run``:

* every registered rule becomes a ``reportingDescriptor`` under
  ``tool.driver.rules`` — id, title, problem statement, and a Markdown
  ``help`` block generated from the rule's :class:`~repro.rules.base.RuleDoc`;
* every ranked detection becomes a ``result`` pointing back into the
  analysed artifact via ``physicalLocation`` (1-based ``startLine`` plus
  ``charOffset``/``charLength`` from the statement offsets the parser
  records) and, for schema/data findings, a ``logicalLocation`` naming the
  table or column;
* rewrite-kind fixes whose statement has a recorded offset become real
  SARIF ``fixes`` — one ``replacement`` deleting the statement's byte range
  and inserting the rewritten query — so SARIF-aware editors and CI bots
  can apply them mechanically; every fix (rewrite or textual guidance)
  additionally travels in the result's property bag.

Only properties in the SARIF 2.1.0 required set plus widely-supported
optional ones are emitted; ``tests/conformance/test_rule_docs.py`` validates
the required-property contract over the golden corpus.

:func:`render_sarif` encodes the ``tool.driver.rules`` block — most of a
log's bytes, and the same for every job under one rule set — once per
distinct rule content in a process and splices it into each log, so a
process rendering many logs pays for the block once; the rest goes
through a small encoder that writes exactly what ``json.dumps(log,
indent=...)`` would.
"""
from __future__ import annotations

import functools
import json
from typing import Iterable
from urllib.parse import quote

from ..model.antipatterns import catalog_entry
from ..model.detection import Severity
from ..rules.registry import RuleRegistry, default_registry
from .model import Finding, ReportDocument

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Detection severities → SARIF result levels.
_LEVELS = {Severity.LOW: "note", Severity.MEDIUM: "warning", Severity.HIGH: "error"}


def severity_level(severity: Severity) -> str:
    """Map a detection severity onto a SARIF ``level``."""
    return _LEVELS.get(severity, "warning")


def rule_descriptor(rule) -> dict:
    """The ``reportingDescriptor`` for one registered rule."""
    return _descriptor(rule.name, rule.severity, rule.anti_pattern, rule.documentation())


def _rule_content(rule) -> tuple:
    """Everything :func:`rule_descriptor` reads from a rule, hashable."""
    return (rule.name, rule.severity, rule.anti_pattern, rule.documentation())


def _descriptor(name, severity, anti_pattern, doc) -> dict:
    entry = catalog_entry(anti_pattern)
    return {
        "id": name,
        "name": name,
        "shortDescription": {"text": doc.title},
        "fullDescription": {"text": doc.problem},
        "help": {"text": f"{doc.why_it_hurts}\n\nFix: {doc.fix}", "markdown": doc.help_markdown()},
        "defaultConfiguration": {"level": severity_level(severity)},
        "properties": {
            "anti_pattern": anti_pattern.value,
            "category": entry.category.value,
            "paper_section": doc.paper_section,
        },
    }


def _artifact_uri(document: ReportDocument, finding: Finding) -> str:
    uri = finding.detection.source or document.source
    # Placeholder labels like "<input>" are not URI-shaped; strip the angle
    # brackets and percent-encode the rest (a literal '#' or '%' in a file
    # name would otherwise be parsed as a fragment / escape by consumers).
    return quote(uri.strip("<>"), safe="/") or "input"


def _result(
    finding: Finding, rule_index: "dict[str, int]", artifact_uri: str
) -> dict:
    detection = finding.detection
    result: dict = {
        "ruleId": detection.rule or detection.anti_pattern.value,
        "level": severity_level(detection.severity),
        "message": {"text": detection.message},
        "properties": {
            "anti_pattern": detection.anti_pattern.value,
            "detection_mode": detection.detection_mode,
            "confidence": round(detection.confidence, 3),
            "rank": finding.rank,
            "score": round(finding.score, 4),
            "workload_weight": round(finding.workload_weight, 4),
        },
    }
    index = rule_index.get(result["ruleId"])
    if index is not None:
        result["ruleIndex"] = index
    location: dict = {
        "physicalLocation": {"artifactLocation": {"uri": artifact_uri}}
    }
    if detection.query:
        region: dict = {}
        if detection.statement_line is not None:
            region["startLine"] = max(1, detection.statement_line)
            # endLine defaults to startLine when absent (spec §3.30); emit
            # it for multi-line statements so the line-based and char-based
            # addressing schemes describe the same range.
            if (
                detection.statement_end_line is not None
                and detection.statement_end_line > detection.statement_line
            ):
                region["endLine"] = detection.statement_end_line
        if detection.statement_offset is not None:
            region["charOffset"] = max(0, detection.statement_offset)
            # The raw statement text can include leading comments that sit
            # *before* the offset; size the region with the recorded token
            # span, never len(query), or it bleeds into the next statement.
            if detection.statement_length is not None:
                region["charLength"] = detection.statement_length
        # SARIF 2.1.0 requires a region to carry at least one of
        # startLine/charOffset/byteOffset; when the statement's position is
        # unknown (list inputs, batch paths) omit the region entirely — a
        # location with only an artifactLocation is valid, a snippet-only
        # region is not.
        if region:
            # snippet.text must equal the region's content (spec 3.30.13).
            # The parser records whether the raw text is byte-identical to
            # the source span (lexer normalisation — folded compound
            # keywords, stripped comments — can make them differ); when it
            # is not, the snippet is omitted rather than emitted wrong.
            if detection.statement_text_exact:
                region["snippet"] = {"text": detection.query}
            location["physicalLocation"]["region"] = region
    if finding.target:
        location["logicalLocations"] = [
            {"name": finding.target, "kind": "member" if detection.column else "type"}
        ]
    result["locations"] = [location]
    if finding.fix is not None:
        result["properties"]["fix"] = {
            "explanation": finding.fix.explanation,
            "statements": list(finding.fix.statements),
            "rewritten_query": finding.fix.rewritten_query,
        }
        replacement = _fix_replacement(finding, artifact_uri)
        if replacement is not None:
            result["fixes"] = [replacement]
    return result


def _fix_replacement(finding: Finding, artifact_uri: str) -> "dict | None":
    """A SARIF ``fix`` object for a mechanically-applicable rewrite.

    Only rewrite-kind fixes qualify, and only when the parser recorded the
    statement's exact byte range (offset + token-span length): replacing a
    range the raw text does not actually occupy would corrupt the artifact,
    so anything positionless stays property-bag-only guidance.
    """
    fix = finding.fix
    detection = finding.detection
    if fix is None or not fix.is_rewrite or not fix.rewritten_query:
        return None
    if detection.statement_offset is None or detection.statement_length is None:
        return None
    return {
        "description": {"text": fix.explanation or f"Rewrite: {detection.display_name}"},
        "artifactChanges": [
            {
                "artifactLocation": {"uri": artifact_uri},
                "replacements": [
                    {
                        "deletedRegion": {
                            "charOffset": max(0, detection.statement_offset),
                            "charLength": detection.statement_length,
                        },
                        "insertedContent": {"text": fix.rewritten_query},
                    }
                ],
            }
        ],
    }


def _invocation(docs: "list[ReportDocument]") -> "dict | None":
    """The SARIF ``invocation`` carrying quarantined pipeline errors.

    Each :class:`~repro.errors.PipelineError` becomes a
    ``toolExecutionNotification`` (spec §3.20.21) whose descriptor id is the
    error's taxonomy code and whose property bag carries the full structured
    record.  ``executionSuccessful`` stays true — a degraded run still
    produced results; notifications at level ``error`` are how SARIF marks
    the gaps.  Clean runs emit no invocation at all, keeping the historical
    log shape byte-identical.
    """
    notifications: "list[dict]" = []
    for document in docs:
        for error in document.errors:
            notification: dict = {
                "level": "error",
                "message": {"text": str(error)},
                "descriptor": {"id": getattr(error, "code", "internal")},
                "properties": error.to_dict() if hasattr(error, "to_dict") else {},
            }
            source = getattr(error, "source", None)
            if source:
                notification["locations"] = [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": quote(str(source).strip("<>"), safe="/") or "input"
                            }
                        }
                    }
                ]
            notifications.append(notification)
    if not notifications:
        return None
    return {
        "executionSuccessful": True,
        "toolExecutionNotifications": notifications,
    }


def _log(
    documents: "ReportDocument | Iterable[ReportDocument]",
    rules: "list[dict] | _Encoded",
    rule_index: "dict[str, int]",
) -> dict:
    """The SARIF log skeleton around a ready ``tool.driver.rules`` value."""
    # Imported lazily: repro/__init__ imports this package before it defines
    # __version__, so a module-level import would see a half-initialised repro.
    from .. import __version__

    docs = [documents] if isinstance(documents, ReportDocument) else list(documents)
    results: "list[dict]" = []
    # Ordered URI dedup alongside result building: one _artifact_uri call
    # per finding, O(1) membership.
    uri_set: "dict[str, None]" = {}
    for document in docs:
        for finding in document.findings:
            uri = _artifact_uri(document, finding)
            uri_set[uri] = None
            results.append(_result(finding, rule_index, uri))
    uris = list(uri_set)
    run: dict = {
        "tool": {
            "driver": {
                "name": "sqlcheck",
                "version": __version__,
                "informationUri": "https://doi.org/10.1145/3318464.3389754",
                "rules": rules,
            }
        },
        "results": results,
        "columnKind": "unicodeCodePoints",
    }
    if uris:
        run["artifacts"] = [{"location": {"uri": uri}} for uri in uris]
    invocation = _invocation(docs)
    if invocation is not None:
        run["invocations"] = [invocation]
    # The workload cost model and pipeline timings travel in the run's
    # property bag (SARIF has no first-class slot for either).
    properties: dict = {
        "cost_model": {doc.source: doc.cost_model for doc in docs},
    }
    stats = {doc.source: doc.stats for doc in docs if doc.stats}
    if stats:
        properties["pipeline_stats"] = stats
    # Ingestion provenance (incl. degraded/lines_skipped) rides along so a
    # SARIF consumer knows what workload weighted the ranks and whether any
    # of it was dropped on the way in.
    workload = {doc.source: doc.workload for doc in docs if doc.workload}
    if workload:
        properties["workload"] = workload
    run["properties"] = properties
    return {"$schema": SARIF_SCHEMA, "version": SARIF_VERSION, "runs": [run]}


def _rule_index(names: "Iterable[str]") -> "dict[str, int]":
    """Rule id -> position in ``tool.driver.rules``; for a name registered
    twice the last position wins."""
    return {name: i for i, name in enumerate(names)}


def to_sarif(
    documents: "ReportDocument | Iterable[ReportDocument]",
    *,
    registry: "RuleRegistry | None" = None,
) -> dict:
    """Build the SARIF 2.1.0 log object for one or more report documents."""
    registry = registry if registry is not None else default_registry()
    rules = [rule_descriptor(rule) for rule in registry]
    return _log(documents, rules, _rule_index(rule.name for rule in registry))


def render_sarif(
    documents: "ReportDocument | Iterable[ReportDocument]",
    *,
    registry: "RuleRegistry | None" = None,
    indent: int = 2,
) -> str:
    """Serialise :func:`to_sarif` output as a JSON string.

    The result is byte-identical to ``json.dumps(to_sarif(...),
    indent=indent)``; the rules block comes from a process-wide cache
    keyed on the registered rules' content, so after the first render
    under a rule set a log costs only its own findings.
    """
    registry = registry if registry is not None else default_registry()
    content = tuple(_rule_content(rule) for rule in registry)
    rules = _encoded_rules(content, indent)
    log = _log(documents, rules, _rule_index(entry[0] for entry in content))
    return _encode(log, indent)


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
_escape = json.encoder.encode_basestring_ascii
_INFINITY = float("inf")


class _Encoded:
    """A JSON value encoded ahead of time as a top-level value.

    :func:`_encode` writes it verbatim, re-padding its newlines to the depth
    it lands at (encoded JSON strings never hold a raw newline).
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


@functools.lru_cache(maxsize=8)
def _encoded_rules(content: tuple, indent: int) -> _Encoded:
    """The encoded ``tool.driver.rules`` block for one rule set.

    Keyed on :func:`_rule_content` of every rule, so a rule whose doc or
    severity changes gets a new entry, never a stale one.
    """
    return _Encoded(_encode([_descriptor(*entry) for entry in content], indent))


def _encode(value, indent: int) -> str:
    """``json.dumps(value, indent=indent)``, byte for byte, for the JSON
    values a SARIF log carries (plus :class:`_Encoded` leaves)."""
    out: "list[str]" = []
    _write(value, out, "\n", " " * indent)
    return "".join(out)


def _write(value, out: "list[str]", newline: str, step: str) -> None:
    # Type tests in json's order: str and int subclasses (enums) encode as
    # their base type, bool before int.
    if isinstance(value, str):
        out.append(_escape(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + step
        separator = "{" + inner
        for key, item in value.items():
            # _escape raises TypeError for a non-str key (json.dumps would
            # coerce int/float/bool/None keys; a SARIF log has none).
            out.append(separator + _escape(key) + ": ")
            _write(item, out, inner, step)
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + step
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write(item, out, inner, step)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, _Encoded):
        out.append(value.text.replace("\n", newline))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)
