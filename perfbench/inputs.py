"""Seeded input generation for the three benchmark workloads.

Everything here is a pure function of the ``--seed`` argument: the same
seed writes byte-identical files.  The program under test only ever sees
the files (and request bodies) produced here.

* ``github-apps`` — the labelled synthetic GitHub corpus
  (:class:`repro.workloads.GitHubCorpusGenerator` with 680 repositories,
  padded with 45% exact duplicates), one entry per repository.
* ``scan-log`` — a SQLite database with planted design and data
  anti-patterns plus a PostgreSQL stderr log over the same tables whose
  statements vary their literals.  The planted ``(anti-pattern, table)``
  pairs are the labels.
* ``rest-service`` — a request list of corpus statements: about 80% repeat
  statements a primed persistent memo has seen, about 20% carry a unique
  sqlcommenter-style tag so the service has never seen their text.
"""
from __future__ import annotations

import json
import random
import sqlite3
from pathlib import Path

#: ``github-apps`` corpus shape (10,275 statements at the default seed).
GITHUB_REPOS = 680
GITHUB_DUPLICATES = 0.45

#: ``scan-log`` shape: tables, rows per table, log lines, literal variants
#: per statement template (24 tables x 6 templates x 7 variants ~ 1k
#: distinct statements).
SCAN_TABLES = 24
SCAN_ROWS = 1500
SCAN_LOG_LINES = 24_000
SCAN_VARIANTS = 7

#: ``rest-service`` request mix: share of never-seen statements, and the
#: length of the pre-generated request list (longer than any run consumes).
REST_MISS_SHARE = 0.2
REST_REQUESTS = 40_000

_ENTITIES = (
    "orders", "customers", "invoices", "products", "shipments", "payments",
    "tickets", "agents", "devices", "sensors", "articles", "authors",
    "events", "venues", "accounts", "sessions", "reviews", "coupons",
    "stores", "vendors", "employees", "projects", "tasks", "comments",
)

#: Anti-patterns the ``scan-log`` generator plants, one per planted table.
SCAN_PLANTS = (
    "no_primary_key",
    "generic_primary_key",
    "multi_valued_attribute",
    "missing_timezone",
    "external_data_storage",
    "enumerated_types",
    "incorrect_data_type",
    "data_in_metadata",
)

_WORDS = (
    "amber", "basalt", "cedar", "delta", "ember", "fjord", "garnet", "harbor",
    "indigo", "juniper", "kestrel", "lumen", "meadow", "nectar", "onyx",
    "prairie", "quartz", "raven", "sierra", "tundra", "umber", "violet",
)


# ----------------------------------------------------------------------
# github-apps
# ----------------------------------------------------------------------
def github_corpus(seed: int):
    """The labelled corpus of ``github-apps`` (and the statement pool of
    ``rest-service``)."""
    from repro.workloads.github_corpus import GitHubCorpusGenerator, with_duplicates

    base = GitHubCorpusGenerator(repos=GITHUB_REPOS, seed=seed).generate()
    return with_duplicates(base, GITHUB_DUPLICATES, seed=seed)


def write_github_apps(seed: int, directory: Path) -> dict:
    """Write the per-repository statement lists; return the labels.

    Labels map ``repo -> [[anti-pattern names] per statement]`` in the
    order the statements are handed to ``SQLCheck.check``.
    """
    corpus = github_corpus(seed)
    apps: "dict[str, list[str]]" = {}
    labels: "dict[str, list[list[str]]]" = {}
    for statement in corpus:
        apps.setdefault(statement.repo, []).append(statement.sql)
        labels.setdefault(statement.repo, []).append(
            sorted(ap.value for ap in statement.labels)
        )
    path = directory / "apps.json"
    path.write_text(json.dumps(apps), encoding="utf-8")
    return {"apps": str(path), "labels": labels}


# ----------------------------------------------------------------------
# scan-log
# ----------------------------------------------------------------------
def _table_plan(rng: random.Random) -> "list[tuple[str, str | None]]":
    """``(table, planted anti-pattern or None)`` for every table.

    Every plant kind goes to two tables and the remaining third of the
    tables stay clean controls; the seed only decides which table gets
    which, so the amount of work is the same for every seed.
    """
    tables = list(_ENTITIES[:SCAN_TABLES])
    rng.shuffle(tables)
    kinds = list(SCAN_PLANTS) * 2
    plan = [(table, kinds[i] if i < len(kinds) else None) for i, table in enumerate(tables)]
    plan.sort()
    return plan


def _columns(table: str, plant: "str | None") -> "tuple[str, list[str], list[str]]":
    """The primary-key column, the DDL column list, and the insert columns."""
    singular = table[:-1]
    pk = "id" if plant == "generic_primary_key" else f"{singular}_id"
    pk_ddl = f"{pk} INTEGER" if plant == "no_primary_key" else f"{pk} INTEGER PRIMARY KEY"
    created = "TIMESTAMP" if plant == "missing_timezone" else "TIMESTAMP WITH TIME ZONE"
    ddl = [pk_ddl, "title VARCHAR(120) NOT NULL", "amount NUMERIC(12,2)",
           f"created_at {created}"]
    if plant == "multi_valued_attribute":
        ddl.append("tag_ids TEXT")
    elif plant == "external_data_storage":
        ddl.append("file_path VARCHAR(255)")
    elif plant == "enumerated_types":
        ddl.append("status VARCHAR(16)")
    elif plant == "incorrect_data_type":
        ddl.append("quantity VARCHAR(20)")
    elif plant == "data_in_metadata":
        ddl.extend(f"score_{n} INTEGER" for n in (1, 2, 3, 4))
    names = [column.split()[0] for column in ddl]
    return pk, ddl, names


def _row(rng: random.Random, table: str, plant: "str | None", i: int) -> list:
    day = 1 + i % 28
    stamp = f"2021-{1 + i % 12:02d}-{day:02d} {i % 24:02d}:{i % 60:02d}:00"
    if plant != "missing_timezone":
        stamp += "+00:00"
    row: list = [
        i + 1,
        f"{table} {rng.choice(_WORDS)} {rng.choice(_WORDS)} {i}",
        round(rng.uniform(1, 5000), 2),
        stamp,
    ]
    if plant == "multi_valued_attribute":
        row.append(",".join(str(rng.randrange(1, 500)) for _ in range(rng.randint(2, 5))))
    elif plant == "external_data_storage":
        row.append(f"/var/app/uploads/{table}/{i}-{rng.choice(_WORDS)}.pdf")
    elif plant == "enumerated_types":
        row.append(rng.choice(("new", "paid", "shipped")))
    elif plant == "incorrect_data_type":
        row.append(str(rng.randrange(1, 1000)))
    elif plant == "data_in_metadata":
        row.extend(rng.randrange(0, 100) for _ in range(4))
    return row


def _templates(table: str, pk: str, other: str, other_pk: str) -> "list[str]":
    """Statement templates over one table; ``{n}``/``{w}``/``{m}`` vary."""
    return [
        f"SELECT title, amount FROM {table} WHERE {pk} = {{n}}",
        f"SELECT * FROM {table} WHERE created_at > '2021-{{m}}-01'",
        f"UPDATE {table} SET amount = {{n}}.50 WHERE {pk} = {{n}}",
        f"INSERT INTO {table} (title, amount, created_at) "
        f"VALUES ('{{w}} {{n}}', {{n}}.25, '2021-{{m}}-02 10:00:00+00:00')",
        f"SELECT title FROM {table} WHERE title LIKE '%{{w}}%'",
        f"SELECT a.title, b.title FROM {table} a JOIN {other} b "
        f"ON b.{other_pk} = a.{pk} WHERE a.amount > {{n}}",
    ]


def write_scan_log(seed: int, directory: Path) -> dict:
    """Write the SQLite database and the PostgreSQL log; return the labels."""
    rng = random.Random(seed)
    plan = _table_plan(rng)
    db_path = directory / "app.db"
    conn = sqlite3.connect(db_path)
    pks: "dict[str, str]" = {}
    try:
        for table, plant in plan:
            pk, ddl, names = _columns(table, plant)
            pks[table] = pk
            conn.execute(f"CREATE TABLE {table} ({', '.join(ddl)})")
            marks = ", ".join("?" for _ in names)
            conn.executemany(
                f"INSERT INTO {table} ({', '.join(names)}) VALUES ({marks})",
                (_row(rng, table, plant, i) for i in range(SCAN_ROWS)),
            )
        conn.commit()
    finally:
        conn.close()

    tables = [table for table, _ in plan]
    distinct: "list[str]" = []
    for index, table in enumerate(tables):
        other = tables[(index + 1) % len(tables)]
        for template in _templates(table, pks[table], other, pks[other]):
            for _ in range(SCAN_VARIANTS):
                distinct.append(template.format(
                    n=rng.randrange(1, SCAN_ROWS),
                    w=rng.choice(_WORDS),
                    m=f"{rng.randrange(1, 13):02d}",
                ))
    distinct = list(dict.fromkeys(distinct))
    # Zipf-like popularity: a few hot statements, a long tail.
    weights = [1.0 / (rank + 1) ** 0.8 for rank in range(len(distinct))]
    rng.shuffle(distinct)
    log_path = directory / "postgresql.log"
    with open(log_path, "w", encoding="utf-8") as handle:
        for line, statement in enumerate(
            rng.choices(distinct, weights=weights, k=SCAN_LOG_LINES - len(distinct))
            + distinct
        ):
            second = line % 60
            minute = (line // 60) % 60
            handle.write(
                f"2026-07-01 12:{minute:02d}:{second:02d} UTC [{1000 + line % 97}] "
                f"LOG:  statement: {statement}\n"
            )
    planted = sorted([plant, table] for table, plant in plan if plant is not None)
    return {
        "db": str(db_path),
        "log": str(log_path),
        "log_lines": SCAN_LOG_LINES,
        "planted": planted,
    }


# ----------------------------------------------------------------------
# rest-service
# ----------------------------------------------------------------------
def rest_requests(seed: int) -> dict:
    """The request list and the statement pool the memo is primed with.

    Reads repeat a distinct corpus statement; misses prefix one with a
    unique ``/* bench-miss=<i> */`` tag, so their text has never reached
    the service.  ``labels`` maps every distinct corpus statement to its
    ground-truth anti-pattern names (a tag does not change them).
    """
    corpus = github_corpus(seed)
    labels: "dict[str, list[str]]" = {}
    for statement in corpus:
        labels.setdefault(statement.sql, sorted(ap.value for ap in statement.labels))
    pool = sorted(labels)
    rng = random.Random(seed)
    requests: "list[tuple[str, str]]" = []
    for i in range(REST_REQUESTS):
        base = rng.choice(pool)
        if rng.random() < REST_MISS_SHARE:
            requests.append((f"/* bench-miss={seed}-{i} */ {base}", base))
        else:
            requests.append((base, base))
    return {"pool": pool, "requests": requests, "labels": labels}
