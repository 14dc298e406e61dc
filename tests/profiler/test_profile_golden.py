"""Golden fixture for :func:`repro.profiler.column_profile.profile_column`.

``golden_profiles.json`` holds, for every column built by
:func:`golden_columns`, the ``repr`` of each field of
``dataclasses.asdict(profile_column(name, values))`` as the original
seven-pass profiler computed it.  The fixture is data, not a recomputation:
any change to a profile field, its Python type, or the order of
``family_counts`` fails here.  ``repr`` keeps ``1``/``1.0``/``True``,
``0.0``/``-0.0`` and ``nan`` apart, which ``==`` would not.

The columns cover the cases where values that compare equal classify
differently: numbers across types, signed zeros, NaN, ``Decimal`` scales,
tz-aware datetimes at the same instant, padded and signed numeric strings,
Unicode digits, timezone suffixes, paths and media URLs, every list
delimiter next to prose, unhashable values, ties, and empty, all-null and
constant columns, plus seeded random mixtures of all of them.
"""
from __future__ import annotations

import dataclasses
import datetime as dt
import json
import random
from decimal import Decimal
from pathlib import Path

import pytest

from repro.profiler.column_profile import profile_column

GOLDEN_PATH = Path(__file__).with_name("golden_profiles.json")

_UTC = dt.timezone.utc
_IST = dt.timezone(dt.timedelta(hours=5, minutes=30))
_PST = dt.timezone(dt.timedelta(hours=-8))

#: One pool per value kind; the seeded mixtures draw from all of them.
_POOLS: dict[str, list] = {
    "int": [0, 1, 2, 3, 7, 42, -5, 2**53, 2**53 + 1, 10**20],
    "float": [0.0, -0.0, 1.0, 0.5, -2.25, 1e-9, 3.141592653589793, 1e20, float("inf")],
    "bool": [True, False],
    "numeric_text": [
        "1", "01", " 12 ", "\t3.5", "+5", "-3", ".5", "5.", "1e5", "1E-3", "-0",
        "-0.0", "inf", "nan", "Infinity", "1_000", "\u0661\u0662\u0663", "12\n",
        "1e400", "0x10", "1,5",
    ],
    "bool_text": ["true", "False", "t", "F", "yes"],
    "temporal_text": [
        "2020-01-01", "2020-01-01 10:00", "2020-01-01T10:00:00Z",
        "2020-01-01 10:00:00+05:30", "2020-01-01T10:00:00.123-0800",
        "2020-01-01 10:00:00 +0000", "12:30", "12:30:45", "2020-1-1", "Z",
        "-0800", "2020-01-01Z",
    ],
    "uuid_text": [
        "123e4567-e89b-12d3-a456-426614174000",
        "123E4567-E89B-12D3-A456-426614174000",
    ],
    "path_text": [
        "/var/data/a.txt", "C:\\docs\\report.docx", "img/photo.JPG", "./a.csv",
        "../b/c.pdf", "~/x.tar.gz", "\\\\server\\share\\f.xls", " /padded/path.txt ",
        "notes.txt", "archive.zip", "/no/extension", "a" * 310 + ".txt",
    ],
    "url_text": [
        "https://cdn.example.com/a.png", "http://example.com/page",
        "HTTPS://EXAMPLE.COM/B.MP4", "https://example.com/x.pdf?dl=1",
        "http://example.com/song.mp3",
    ],
    "list_text": [
        "a,b,c", "1,2", "x, y", "red;green", "a|b|c", "2020/01/02", "x/y",
        "a,,b", ",", "tag1,tag2;tag3", "u@x.com,v@y.com", "a+b,c-d", "one|",
    ],
    "prose_text": [
        "Hello, world", "12 Main St, Springfield", "semi; colon", "pipe | spaced",
        "and/or", "plain words", "", "   ", "x" * 80,
    ],
    "bytes": [b"abc", b"1,2", b"", b"/a/b.txt", b"12"],
    "date": [dt.date(2020, 1, 1), dt.date(1999, 12, 31)],
    "datetime": [
        dt.datetime(2020, 1, 1, 10, 0),
        dt.datetime(2020, 1, 1, 10, 0, tzinfo=_UTC),
        dt.datetime(2020, 1, 1, 15, 30, tzinfo=_IST),
        dt.datetime(2020, 1, 1, 2, 0, tzinfo=_PST),
    ],
    "decimal": [Decimal("1"), Decimal("1.0"), Decimal("1.00"), Decimal("-0"), Decimal("2.5")],
    "unhashable": [[1, 2], [1, 2], ["a,b"], {"k": 1}, []],
}


def golden_columns() -> list[tuple[str, list]]:
    """The fixture's input columns, in order (deterministic)."""
    nan = float("nan")
    columns: list[tuple[str, list]] = [
        ("ints", [random.Random(1).randint(0, 20) for _ in range(200)]),
        ("ints_with_nulls", [None if i % 4 == 0 else i % 7 for i in range(60)]),
        ("one_onefloat_true", [1, 1.0, True, 1, True, 1.0, 2, 0, False, 0.0, 1]),
        ("true_first", [True, 1, 1.0, 1, 1]),
        ("signed_zeros", [0.0, -0.0, 0.0, -0.0, 0, False]),
        ("neg_zero_median", [0.0, -0.0, 0.0]),
        ("neg_zero_first", [-0.0, 0.0, 0.0, -0.0]),
        ("nan_mixed", [nan, 1.0, 2.0, nan, float("inf"), 2.0]),
        ("nan_first", [nan, 3.0, 1.0]),
        ("nan_strings", ["nan", "NaN", 1.0, "2"]),
        ("floats", [round(random.Random(2).uniform(-100, 100), 3) for _ in range(150)]),
        ("big_ints", [2**60, 2**60 + 1, 2**60 + 2, 3]),
        ("bytes", list(_POOLS["bytes"]) * 3),
        ("dates", [dt.date(2020, 1, d) for d in range(1, 20)] + [None]),
        ("datetimes_naive", [dt.datetime(2021, 5, 1, h) for h in range(12)]),
        ("datetimes_tz", list(_POOLS["datetime"]) * 2),
        ("same_instant_tz", [
            dt.datetime(2020, 1, 1, 12, tzinfo=_UTC),
            dt.datetime(2020, 1, 1, 17, 30, tzinfo=_IST),
            dt.datetime(2020, 1, 1, 12, tzinfo=_UTC),
        ]),
        ("decimals", list(_POOLS["decimal"]) * 2),
        ("unhashable", list(_POOLS["unhashable"]) + ["[1, 2]", None]),
        ("padded_numerics", [" 12 ", "\t3.5", "12", "3.5 ", " -7", "\n8\n"]),
        ("signed_and_exponent", ["+5", ".5", "1e5", "5.", "-3", "1E-3", "+.5e+2", "1e", "e5"]),
        ("odd_numeric_text", ["inf", "Infinity", "1_000", "\u0661\u0662\u0663", "1e400", "0x10"]),
        ("tz_strings", [
            "2020-01-01T10:00:00Z", "2020-01-01 10:00:00+05:30",
            "2020-01-01 10:00", "2020-01-01T10:00:00-0800", "2020-01-01",
            "2020-01-01 10:00:00 +0000",
        ]),
        ("temporal_text", list(_POOLS["temporal_text"])),
        ("paths", list(_POOLS["path_text"])),
        ("media_urls", list(_POOLS["url_text"]) * 2),
        ("comma_lists", ["a,b,c", "1,2", "x,y,z", "solo", "p,q"]),
        ("semicolon_lists", ["red;green", "blue;cyan;teal", "x;y", "nope"]),
        ("pipe_lists", ["a|b|c", "d|e", "f", "g|h"]),
        ("slash_lists", ["2020/01/02", "x/y", "a/b/c.txt", "/srv"]),
        ("prose_with_commas", ["Hello, world", "12 Main St, Springfield", "a, b", "Ok,then"]),
        ("mixed_delimiters", list(_POOLS["list_text"])),
        ("empty", []),
        ("all_null", [None] * 10),
        ("constant", ["x"] * 50),
        ("blank_strings", ["", "  ", None, ""]),
        ("bool_text", list(_POOLS["bool_text"]) * 2),
        ("uuids_times", list(_POOLS["uuid_text"]) + ["12:30", "12:30:45", "1:30"]),
        ("most_common_tie", ["b", "a", "a", "b", "c"]),
        ("family_tie", ["1", "x", "y", "2"]),
        ("numbers_beside_text", ["10", "apple", "2", "banana", 3.5, None]),
    ]
    for seed in range(1, 9):
        rng = random.Random(seed)
        kinds = sorted(_POOLS)
        values = []
        for _ in range(300):
            if rng.random() < 0.1:
                values.append(None)
                continue
            pool = _POOLS[rng.choice(kinds)]
            values.append(rng.choice(pool))
        columns.append((f"mixed_seed_{seed}", values))
    return columns


def _snapshot(name: str, values: list) -> dict[str, str]:
    profile = profile_column(name, values, table="golden")
    return {key: repr(value) for key, value in dataclasses.asdict(profile).items()}


_COLUMNS = golden_columns()
_GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_fixture_covers_every_column():
    assert [name for name, _ in _COLUMNS] == list(_GOLDEN)
    assert len(_COLUMNS) >= 40


@pytest.mark.parametrize("name,values", _COLUMNS, ids=[name for name, _ in _COLUMNS])
def test_profile_matches_golden(name, values):
    assert _snapshot(name, values) == _GOLDEN[name]


def test_profile_does_not_mutate_input():
    for name, values in _COLUMNS:
        before = repr(values)
        profile_column(name, values)
        assert repr(values) == before
