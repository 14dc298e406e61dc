"""SARIF bytes: the reporting encoder and the cached rules block.

``render_sarif`` does not call ``json.dumps``: it splices a rules block
encoded once per rule set into a log written by its own encoder.  These
tests pin both halves to the stdlib's bytes — the encoder over random JSON
values, and whole logs over the golden corpus under registries that add,
remove, duplicate, or mutate rules.
"""
from __future__ import annotations

import enum
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SQLCheck
from repro.model.antipatterns import AntiPattern
from repro.model.detection import Severity
from repro.reporting import build_document, render_sarif, to_sarif
from repro.reporting.sarif import _encode
from repro.rules.base import QueryRule, RuleDoc
from repro.rules.registry import RuleRegistry, default_registry
from repro.testkit.conformance import _build_database


class _Colour(str, enum.Enum):
    RED = "red"
    BLUE = "blüe\n"


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = -7


_TEXT = st.text(
    alphabet=st.characters(min_codepoint=0, max_codepoint=0x10FFFF, blacklist_categories=("Cs",)),
    max_size=12,
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")])
    | _TEXT
    | st.sampled_from(list(_Colour) + list(_Level))
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(value=_VALUES, indent=st.sampled_from([0, 2, 4]))
def test_encoder_matches_json_dumps(value, indent):
    assert _encode(value, indent) == json.dumps(value, indent=indent)


@pytest.mark.parametrize("value", [{"a": object()}, {("k",): "a"}, [{1, 2}]])
def test_encoder_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        _encode(value, 2)


# ----------------------------------------------------------------------
# whole logs: render_sarif == json.dumps(to_sarif(...), indent=2)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden_documents():
    """One report document per golden-corpus example, plus one with stats."""
    toolchain = SQLCheck()
    documents = []
    for rule in toolchain.registry:
        for index, example in enumerate(rule.examples()):
            database = _build_database(example) if example.needs_database else None
            source = f"{rule.name}[{index}]"
            report = toolchain.check(list(example.statements), database=database, source=source)
            documents.append(build_document(report, registry=toolchain.registry, source=source))
    report = toolchain.check(
        "CREATE TABLE t (a FLOAT);\nSELECT * FROM t ORDER BY RAND();", source="stats.sql"
    )
    documents.append(
        build_document(report, registry=toolchain.registry, include_stats=True)
    )
    assert sum(len(document) for document in documents) > 0
    return documents


def _assert_same_bytes(documents, registry):
    expected = json.dumps(to_sarif(documents, registry=registry), indent=2)
    assert render_sarif(documents, registry=registry) == expected
    # One document at a time too (the CI-job shape: one source per log).
    for document in documents[:5]:
        expected = json.dumps(to_sarif(document, registry=registry), indent=2)
        assert render_sarif(document, registry=registry) == expected
    return expected


class _ExtraRule(QueryRule):
    """A third-party rule that never fires."""

    anti_pattern = AntiPattern.COLUMN_WILDCARD
    statement_types = ("SELECT",)
    doc = RuleDoc(
        title="Extra — régle",
        problem="Looks for nothing.",
        why_it_hurts="It does not.",
        fix="None needed.",
        paper_section="n/a",
    )

    def check(self, annotation, context):
        return []


class _UndocumentedRule(_ExtraRule):
    """Synthesised documentation comes from this docstring."""

    doc = None


def _with(*rules) -> RuleRegistry:
    registry = default_registry()
    for rule in rules:
        registry.register(rule)
    return registry


def _without(name: str) -> RuleRegistry:
    registry = default_registry()
    registry.unregister(name)
    return registry


@pytest.mark.parametrize(
    "make_registry",
    [
        pytest.param(default_registry, id="default"),
        pytest.param(lambda: _with(_ExtraRule()), id="extra-rule"),
        pytest.param(lambda: _without("ColumnWildcardRule"), id="unregistered-rule"),
        pytest.param(lambda: _with(_UndocumentedRule()), id="doc-none"),
        pytest.param(
            lambda: _with(type(next(iter(default_registry())))()), id="shared-name"
        ),
    ],
)
def test_render_sarif_matches_json_dumps_of_to_sarif(golden_documents, make_registry):
    _assert_same_bytes(golden_documents, make_registry())


def test_shared_name_points_results_at_the_last_descriptor(golden_documents):
    first = next(iter(default_registry()))
    registry = _with(type(first)())
    log = json.loads(render_sarif(golden_documents, registry=registry))
    indices = {
        result["ruleIndex"]
        for result in log["runs"][0]["results"]
        if result["ruleId"] == first.name
    }
    positions = [i for i, rule in enumerate(registry) if rule.name == first.name]
    assert len(positions) == 2
    assert indices == {positions[-1]}


def test_changed_doc_or_severity_is_never_served_from_the_cache(golden_documents):
    rule = _ExtraRule()
    registry = _with(rule)
    before = _assert_same_bytes(golden_documents, registry)

    rule.doc = RuleDoc(
        title="Renamed", problem="p", why_it_hurts="w", fix="f", paper_section="s"
    )
    after_doc = _assert_same_bytes(golden_documents, registry)
    assert after_doc != before and '"Renamed"' in after_doc

    rule.severity = Severity.HIGH
    after_severity = _assert_same_bytes(golden_documents, registry)
    assert after_severity != after_doc


def test_synthesised_doc_follows_the_class_docstring(golden_documents):
    class _Reworded(_UndocumentedRule):
        """A different synthesised reason."""

        name = "_UndocumentedRule"

    before = _assert_same_bytes(golden_documents, _with(_UndocumentedRule()))
    after = _assert_same_bytes(golden_documents, _with(_Reworded()))
    assert "A different synthesised reason." in after
    assert after.replace("A different synthesised reason.", "") == before.replace(
        "Synthesised documentation comes from this docstring.", ""
    )
