"""The persistent detection memo: warm restarts, sharing, and corruption.

The SQLite-backed store (:mod:`repro.detector.persist`) must be a pure
optimisation: byte-identical detections whether the file is fresh, warm
from a previous *process*, shared with a different rule registry, corrupt,
contended, or unwritable.  Every degraded path falls back to a clean cold
run — counted, never crashed — and only a broken file is ever deleted.
The row ceiling holds after every flush, at a cost set by what the flush
writes rather than by the size of the file.
"""
from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.detector.detector import APDetector, DetectorConfig
from repro.detector.persist import PersistentMemo
from repro.rules.registry import default_registry
from repro.testkit.oracles import detection_bytes

CORPUS = [
    "CREATE TABLE users (id INTEGER PRIMARY KEY, tags VARCHAR(200))",
    "SELECT * FROM users",
    "SELECT * FROM users WHERE tags LIKE '%admin%'",
    "SELECT * FROM users",
]

REPO_ROOT = Path(__file__).resolve().parents[2]


def _detector(path) -> APDetector:
    return APDetector(DetectorConfig(persistent_memo_path=str(path)))


class TestWarmRestart:
    def test_fresh_instance_replays_byte_identically(self, tmp_path):
        memo = tmp_path / "memo.sqlite"
        cold_detector = _detector(memo)
        cold_report, cold_stats = cold_detector.detect_batch(CORPUS)
        cold_detector.close()
        assert cold_stats.parallel_mode != "persistent-replay"

        warm_detector = _detector(memo)
        warm_report, warm_stats = warm_detector.detect_batch(CORPUS)
        warm_detector.close()
        assert detection_bytes(warm_report) == detection_bytes(cold_report)
        assert warm_stats.parallel_mode == "persistent-replay"
        assert warm_stats.memo_hits == warm_stats.statements

    def test_persistence_matches_the_memoryless_baseline(self, tmp_path):
        baseline = APDetector(DetectorConfig()).detect(CORPUS)
        detector = _detector(tmp_path / "memo.sqlite")
        report = detector.detect(CORPUS)
        detector.close()
        assert detection_bytes(report) == detection_bytes(baseline)

    def test_statement_memo_survives_a_changed_corpus(self, tmp_path):
        """A *different* corpus cannot ride the whole-corpus replay, but
        per-statement entries for unchanged statements still hit."""
        memo = tmp_path / "memo.sqlite"
        first = _detector(memo)
        first.detect_batch(CORPUS)
        first.close()

        extended = CORPUS + ["SELECT id FROM users WHERE id = 7"]
        second = _detector(memo)
        report, stats = second.detect_batch(extended)
        reference = APDetector(DetectorConfig()).detect(extended)
        second.close()
        assert stats.parallel_mode != "persistent-replay"
        assert detection_bytes(report) == detection_bytes(reference)

    def test_memo_info_reports_the_persistent_layer(self, tmp_path):
        detector = _detector(tmp_path / "memo.sqlite")
        detector.detect_batch(CORPUS)
        info = detector.memo_info
        detector.close()
        persistent = info["persistent"]
        assert persistent["path"].endswith("memo.sqlite")
        assert persistent["memo_rows"] > 0
        assert persistent["corpus_rows"] >= 1


class TestCrossProcessPersistence:
    """The store's real contract: warm state survives *process* restarts."""

    SCRIPT = """
import json, sys
from repro.detector.detector import APDetector, DetectorConfig
from repro.testkit.oracles import detection_bytes

corpus = json.loads(sys.argv[2])
detector = APDetector(DetectorConfig(persistent_memo_path=sys.argv[1]))
report, stats = detector.detect_batch(corpus)
detector.close()
print(json.dumps({
    "bytes": detection_bytes(report).decode(),
    "mode": stats.parallel_mode,
}))
"""

    def _run_once(self, memo_path: str) -> dict:
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, memo_path, json.dumps(CORPUS)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        return json.loads(result.stdout)

    def test_second_process_replays_the_first_processs_run(self, tmp_path):
        memo = str(tmp_path / "memo.sqlite")
        first = self._run_once(memo)
        second = self._run_once(memo)
        assert first["mode"] != "persistent-replay"
        assert second["mode"] == "persistent-replay"
        assert second["bytes"] == first["bytes"]

    def test_cli_processes_share_the_memo_cache(self, tmp_path):
        memo = str(tmp_path / "memo.sqlite")
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        command = [
            sys.executable, "-m", "repro.interfaces.cli",
            "--memo-cache", memo, "--format", "json",
            "-q", "SELECT * FROM users",
        ]
        outputs = []
        for _ in range(2):
            result = subprocess.run(
                command, capture_output=True, text=True, env=env, timeout=120,
            )
            assert result.returncode == 1, result.stderr  # findings present
            outputs.append(json.loads(result.stdout)["detections"])
        assert outputs[0] == outputs[1]
        assert os.path.exists(memo)


class TestCorruptAndStaleFiles:
    def test_corrupt_file_invalidates_back_to_cold(self, tmp_path):
        memo = tmp_path / "memo.sqlite"
        warmup = _detector(memo)
        cold = detection_bytes(warmup.detect(CORPUS))
        warmup.close()

        memo.write_bytes(b"this is definitely not a sqlite database")
        detector = _detector(memo)
        report = detector.detect(CORPUS)
        invalidations = detector.persistent.invalidations
        assert detection_bytes(report) == cold
        assert invalidations >= 1
        # The rebuilt store is live again: a fresh instance replays warm.
        detector2 = _detector(memo)
        detector2.detect(CORPUS)
        hits = detector2.persistent.hits
        detector.close()
        detector2.close()
        assert hits > 0

    def test_truncated_file_never_crashes(self, tmp_path):
        memo = tmp_path / "memo.sqlite"
        warmup = _detector(memo)
        cold = detection_bytes(warmup.detect(CORPUS))
        warmup.close()

        blob = memo.read_bytes()
        memo.write_bytes(blob[: len(blob) // 3])
        detector = _detector(memo)
        assert detection_bytes(detector.detect(CORPUS)) == cold
        detector.close()

    def test_corrupt_entry_is_a_counted_miss(self, tmp_path):
        path = str(tmp_path / "memo.sqlite")
        store = PersistentMemo(path)
        store.put_corpus("k1", {"queries_analyzed": 1, "tables_analyzed": 0,
                                "detections": []})
        store.flush()
        store.close()
        with sqlite3.connect(path) as connection:
            connection.execute(
                "UPDATE corpus SET payload = ?", (b"\x80garbage-pickle",)
            )
            connection.commit()

        reopened = PersistentMemo(path)
        assert reopened.get_corpus("k1") is None
        assert reopened.invalidations >= 1
        reopened.close()

    def test_unopenable_path_disables_the_store(self, tmp_path):
        detector = APDetector(
            DetectorConfig(
                persistent_memo_path=str(tmp_path / "no" / "such" / "dir" / "m.db")
            )
        )
        report = detector.detect(CORPUS)
        reference = APDetector(DetectorConfig()).detect(CORPUS)
        detector.close()
        assert detection_bytes(report) == detection_bytes(reference)


class TestConfigScoping:
    def test_different_thresholds_never_share_entries(self, tmp_path):
        from repro.rules.thresholds import Thresholds

        memo = tmp_path / "memo.sqlite"
        default_detector = _detector(memo)
        default_detector.detect_batch(CORPUS)
        default_detector.close()

        strict = DetectorConfig(
            persistent_memo_path=str(memo),
            thresholds=Thresholds(god_table_columns=1),
        )
        strict_detector = APDetector(strict)
        report, stats = strict_detector.detect_batch(CORPUS)
        reference = APDetector(
            dataclasses.replace(strict, persistent_memo_path=None)
        ).detect(CORPUS)
        strict_detector.close()
        assert stats.parallel_mode != "persistent-replay"
        assert detection_bytes(report) == detection_bytes(reference)

    def test_different_registries_share_the_file_without_purging(self, tmp_path):
        """Every key embeds the registry's content digest, so two rule sets
        on one path never match each other's entries and never purge them."""
        memo = tmp_path / "memo.sqlite"
        full = default_registry()
        reduced = default_registry()
        reduced.unregister("GenericPrimaryKeyRule")

        def run(registry, path):
            config = DetectorConfig(persistent_memo_path=path and str(path))
            detector = APDetector(config, registry=registry)
            report, stats = detector.detect_batch(CORPUS)
            detector.close()
            return detection_bytes(report), stats.parallel_mode

        full_bytes, _ = run(full, None)
        reduced_bytes, _ = run(reduced, None)
        assert full_bytes != reduced_bytes  # the rule sets really differ

        assert run(full, memo) == (full_bytes, "serial")
        rows = _row_counts(memo)
        assert run(reduced, memo)[0] == reduced_bytes
        after = _row_counts(memo)
        assert all(after[table] >= rows[table] for table in rows)
        # Both rule sets now replay their own run from the shared file.
        assert run(full, memo) == (full_bytes, "persistent-replay")
        assert run(reduced, memo) == (reduced_bytes, "persistent-replay")


def _row_counts(path) -> "dict[str, int]":
    with sqlite3.connect(str(path)) as connection:
        return {
            table: connection.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in ("memo", "annotations", "corpus")
        }


def _put_one(store: PersistentMemo, n: int) -> None:
    """Buffer entry *n* in all three tables."""
    store.put_detections(b"scope", f"fp{n}", f"raw {n}", [n])
    store.put_annotations("ansi", f"raw {n}", f"fp{n}", ("templates", n))
    store.put_corpus(f"corpus {n}", {"n": n})


def _serves(store: PersistentMemo, n: int) -> bool:
    return (
        store.get_detections(b"scope", f"fp{n}", f"raw {n}") == [n]
        and store.get_annotations("ansi", f"raw {n}") == (f"fp{n}", ("templates", n))
        and store.get_corpus(f"corpus {n}") == {"n": n}
    )


class TestRowCeiling:
    MAX_ROWS = 16

    def test_one_writer_never_exceeds_the_ceiling(self, tmp_path):
        path = tmp_path / "memo.sqlite"
        store = PersistentMemo(path, max_rows=self.MAX_ROWS)
        for n in range(10 * self.MAX_ROWS):
            _put_one(store, n)
            if n % 5 == 0:
                _put_one(store, n // 2)  # a replace leaves a rowid gap
            store.flush()
            assert max(_row_counts(path).values()) <= self.MAX_ROWS
            assert _serves(store, n)
        store.close()

    def test_two_writers_never_exceed_the_ceiling(self, tmp_path):
        path = tmp_path / "memo.sqlite"
        stores = [PersistentMemo(path, max_rows=self.MAX_ROWS) for _ in range(2)]
        for n in range(10 * self.MAX_ROWS):
            writer = stores[n % 2]
            _put_one(writer, n)
            writer.flush()
            assert max(_row_counts(path).values()) <= self.MAX_ROWS
            assert all(_serves(store, n) for store in stores)
        for store in stores:
            store.close()

    def test_concurrent_writers_hold_the_ceiling(self, tmp_path):
        """More writers than cores, each on its own connection: every
        committed state any of them reads is within the ceiling."""
        path = tmp_path / "memo.sqlite"
        stores = [PersistentMemo(path, max_rows=self.MAX_ROWS) for _ in range(4)]
        peaks: "list[int]" = []

        def write(worker: int, store: PersistentMemo) -> None:
            for n in range(worker * 1000, worker * 1000 + 5 * self.MAX_ROWS):
                _put_one(store, n)
                store.flush()
                with store._lock:
                    peaks.append(max(
                        store._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                        for table in ("memo", "annotations", "corpus")
                    ))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=write, args=(worker, store))
                for worker, store in enumerate(stores)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(peaks) == 4 * 5 * self.MAX_ROWS
        assert max(peaks) <= self.MAX_ROWS
        assert [store.invalidations for store in stores] == [0, 0, 0, 0]
        assert max(_row_counts(path).values()) <= self.MAX_ROWS
        for store in stores:
            store.close()

    def test_a_trim_keeps_the_newest_rows(self, tmp_path):
        path = tmp_path / "memo.sqlite"
        store = PersistentMemo(path, max_rows=self.MAX_ROWS)
        for n in range(self.MAX_ROWS + 1):
            _put_one(store, n)
            store.flush()
        kept = self.MAX_ROWS - self.MAX_ROWS // 8
        assert _row_counts(path) == dict.fromkeys(("memo", "annotations", "corpus"), kept)
        assert all(_serves(store, n) for n in range(self.MAX_ROWS + 1 - kept, self.MAX_ROWS + 1))
        assert store.get_corpus(f"corpus {self.MAX_ROWS - kept}") is None
        store.close()

    def test_a_flush_under_the_ceiling_neither_trims_nor_counts(self, tmp_path):
        store = PersistentMemo(tmp_path / "memo.sqlite")
        for n in range(3):
            _put_one(store, n)
            store.flush()
        statements = []
        store._conn.set_trace_callback(statements.append)
        store.put_detections(b"scope", "fp", "raw", [])
        store.flush()
        store._conn.set_trace_callback(None)
        store.close()
        assert any(sql.startswith("INSERT") for sql in statements)
        assert not [sql for sql in statements if "DELETE" in sql.upper()]
        assert not [sql for sql in statements if "COUNT(" in sql.upper()]


class _BusyConnection:
    """A connection stand-in on which every statement hits a held lock."""

    def execute(self, *args):
        error = sqlite3.OperationalError("database is locked")
        error.sqlite_errorcode = sqlite3.SQLITE_BUSY
        raise error

    def close(self):
        pass


class TestLockContention:
    def test_a_contended_flush_keeps_the_shared_file(self, tmp_path):
        path = str(tmp_path / "memo.sqlite")
        first = PersistentMemo(path)
        second = PersistentMemo(path)
        first.put_corpus("k1", {"n": 1})
        first.flush()

        holder = sqlite3.connect(path, isolation_level=None)
        holder.execute("BEGIN IMMEDIATE")
        second._conn.execute("PRAGMA busy_timeout = 50")
        second.put_corpus("k2", {"n": 2})
        second.flush()
        holder.execute("ROLLBACK")
        holder.close()

        assert second.enabled
        assert second.invalidations == 1
        assert _row_counts(path)["corpus"] == 1
        assert first.get_corpus("k1") == {"n": 1}
        assert second.get_corpus("k1") == {"n": 1}
        # The dropped batch costs a miss later, never the store.
        assert second.get_corpus("k2") is None
        second.put_corpus("k2", {"n": 2})
        second.flush()
        fresh = PersistentMemo(path)
        assert fresh.get_corpus("k2") == {"n": 2}
        for store in (first, second, fresh):
            store.close()

    def test_a_contended_open_keeps_the_shared_file(self, tmp_path, monkeypatch):
        path = str(tmp_path / "memo.sqlite")
        # A rollback-journal file mid-write: switching it to WAL needs the
        # lock the holder has, so the open itself is contended.
        holder = sqlite3.connect(path, isolation_level=None)
        holder.execute("CREATE TABLE corpus (key TEXT PRIMARY KEY, payload BLOB NOT NULL)")
        holder.execute("BEGIN IMMEDIATE")
        holder.execute("INSERT INTO corpus VALUES ('k1', x'00')")
        connect = sqlite3.connect

        def impatient_connect(*args, **kwargs):
            return connect(*args, **{**kwargs, "timeout": 0.05})

        monkeypatch.setattr(sqlite3, "connect", impatient_connect)
        store = PersistentMemo(path)
        holder.execute("COMMIT")
        holder.close()
        assert not store.enabled  # runs cold for this process
        assert store.invalidations == 1
        with connect(path) as connection:
            assert connection.execute("SELECT key FROM corpus").fetchall() == [("k1",)]

    def test_a_contended_read_is_a_counted_miss(self, tmp_path):
        path = str(tmp_path / "memo.sqlite")
        store = PersistentMemo(path)
        store.put_corpus("k1", {"n": 1})
        store.flush()
        connection, store._conn = store._conn, _BusyConnection()
        assert store.get_corpus("k1") is None
        assert store.get_annotations("ansi", "raw") is None
        assert (store.misses, store.invalidations) == (2, 0)
        store._conn = connection
        assert store.get_corpus("k1") == {"n": 1}
        store.close()
        assert _row_counts(path)["corpus"] == 1
