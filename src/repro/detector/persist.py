"""Persistent detection memo: SQLite-backed warm state across restarts.

The in-memory caches that make the steady state fast — the annotation
cache, the per-statement detection memo, and the corpus-level replay — die
with the process, so every REST worker and every CLI invocation pays the
cold path again.  :class:`PersistentMemo` mirrors those caches into one
SQLite file so a *restarted* process resumes warm, and concurrent
``detect_batch`` workers (which each open the same path) share one store.

Three tables mirror the three cache layers:

* ``memo`` — ``(scope, fingerprint, raw) -> pickled detection templates``,
  the exact key of ``APDetector._memo``, so a persistent hit installs into
  the in-memory memo and replays through the same code path (byte-identical
  by construction);
* ``annotations`` — ``(dialect, raw) -> pickled parse templates``, the
  read-through layer under :class:`PersistentAnnotationCache`;
* ``corpus`` — a whole-run replay: the digest of an entire ``detect_batch``
  input (ordered exact texts + configuration scope) maps to the final
  deduplicated detections, so re-analysing an unchanged corpus skips the
  parse stage entirely — this is what makes a warm restart comparable to
  the in-memory warm path instead of ~2× cold.

Safety model — the store must *never* crash a run and *never* serve stale
results:

* every key embeds :attr:`RuleRegistry.content_digest` plus the thresholds
  and analysis flags, so rule or configuration changes orphan old entries
  rather than match them — processes with different registries share one
  file without purging each other, and orphaned rows age out;
* a ``meta`` table records the format version; a mismatch on open purges
  the file back to cold (counted as an invalidation);
* each table holds at most ``max_rows`` rows after every flush, by any
  process; trims are amortised (a flush cuts the oldest rows down to 7/8
  of the ceiling only once a table may exceed it — see :meth:`_trim`);
* lock contention (``SQLITE_BUSY``/``SQLITE_LOCKED``) is not corruption:
  a contended read is a counted miss and a contended flush drops its
  batch, never the file;
* a corrupt or truncated file (other sqlite errors, unpicklable payloads)
  is dropped and recreated once; if the path stays unusable the store
  disables itself and the detector simply runs cold.
"""
from __future__ import annotations

import os
import pickle
import sqlite3
import threading

from ..obs import get_metrics
from ..sqlparser.fingerprint import AnnotationCache

#: Schema/payload format of the store; bump on any incompatible change so
#: old files invalidate cleanly instead of unpickling garbage.
FORMAT_VERSION = 1

#: Row ceiling per cache table; a flush that may exceed it trims the
#: oldest rows down to 7/8 of it.
MAX_ROWS = 65536

_TABLES = ("memo", "annotations", "corpus")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE IF NOT EXISTS memo (
    scope TEXT NOT NULL, fingerprint TEXT NOT NULL, raw TEXT NOT NULL,
    payload BLOB NOT NULL, PRIMARY KEY (scope, fingerprint, raw));
CREATE TABLE IF NOT EXISTS annotations (
    dialect TEXT NOT NULL, raw TEXT NOT NULL, fingerprint TEXT NOT NULL,
    payload BLOB NOT NULL, PRIMARY KEY (dialect, raw));
CREATE TABLE IF NOT EXISTS corpus (
    key TEXT PRIMARY KEY, payload BLOB NOT NULL);
"""

#: Invalidation reasons surfaced through metrics and :meth:`info`.
REASON_FORMAT = "format-version"
REASON_CORRUPT_FILE = "corrupt-file"
REASON_CORRUPT_ENTRY = "corrupt-entry"
REASON_IO = "io-error"
REASON_BUSY = "busy"

_CONTENTION = (sqlite3.SQLITE_BUSY, sqlite3.SQLITE_LOCKED)


def _contended(error: Exception) -> bool:
    """True when *error* means another connection holds the lock."""
    code = getattr(error, "sqlite_errorcode", None)
    return code is not None and code & 0xFF in _CONTENTION


class PersistentMemo:
    """One process's handle on the shared SQLite warm-state store.

    All public methods are safe to call from any thread (one internal
    lock serialises access) and never raise: any storage-layer failure
    counts an invalidation and degrades lookups to misses — the cold path
    is always available.  Writes are buffered per run and flushed in one
    transaction by :meth:`flush` (the detector calls it at the end of every
    detection pass).
    """

    def __init__(self, path, *, max_rows: int = MAX_ROWS):
        self.path = str(path)
        self.max_rows = max_rows
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._lock = threading.RLock()
        self._conn: "sqlite3.Connection | None" = None
        self._recreated = False
        # (table, row tuple) pairs accumulated until the next flush.
        self._pending: "list[tuple[str, tuple]]" = []
        try:
            self._connect()
        except (sqlite3.Error, OSError, ValueError) as error:
            if _contended(error):
                # Another process holds the write lock: run cold rather
                # than delete a file that is busy, not broken.
                self._invalidate(REASON_BUSY)
            else:
                self._invalidate(REASON_CORRUPT_FILE)
                self._recreate()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        conn = sqlite3.connect(self.path, timeout=5.0, check_same_thread=False)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            meta = dict(conn.execute("SELECT key, value FROM meta"))
            if meta.get("format_version") != str(FORMAT_VERSION):
                if meta:
                    self._invalidate(REASON_FORMAT)
                for table in (*_TABLES, "meta"):
                    conn.execute(f"DELETE FROM {table}")
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('format_version', ?)",
                    (str(FORMAT_VERSION),),
                )
            conn.commit()
        except (sqlite3.Error, OSError, ValueError):
            conn.close()
            raise
        self._conn = conn

    def _recreate(self) -> None:
        """Drop the on-disk file and start cold; on failure stay disabled."""
        self._conn = None
        try:
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.remove(self.path + suffix)
                except FileNotFoundError:
                    pass
            self._connect()
        except (sqlite3.Error, OSError, ValueError):
            self._conn = None

    def _io_failure(self) -> None:
        """A storage operation failed mid-run: invalidate, recreate once."""
        self._invalidate(REASON_IO)
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
        if not self._recreated:
            self._recreated = True
            self._recreate()

    def close(self) -> None:
        with self._lock:
            self.flush()
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None

    @property
    def enabled(self) -> bool:
        return self._conn is not None

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def _invalidate(self, reason: str) -> None:
        self.invalidations += 1
        metrics = get_metrics()
        if metrics.enabled:
            metrics.persistent_memo_invalidations.inc_single(reason)

    def _count(self, layer: str, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        metrics = get_metrics()
        if metrics.enabled:
            metrics.persistent_memo_lookups.inc(
                1, layer=layer, result="hit" if hit else "miss"
            )

    # ------------------------------------------------------------------
    # generic row access
    # ------------------------------------------------------------------
    def _fetch(self, layer: str, sql: str, params: tuple) -> "tuple | None":
        """One guarded SELECT: its columns with the trailing payload
        unpickled, or None on a miss."""
        with self._lock:
            if self._conn is None:
                return None
            try:
                row = self._conn.execute(sql, params).fetchone()
            except (sqlite3.Error, OSError) as error:
                if _contended(error):
                    self._count(layer, hit=False)
                else:
                    self._io_failure()
                return None
            if row is None:
                self._count(layer, hit=False)
                return None
            value = _loads(row[-1])
            if value is None:
                # Unpicklable payload: a truncated write or a library drift
                # the format version missed — treat as corrupt, never serve.
                self._invalidate(REASON_CORRUPT_ENTRY)
                self._count(layer, hit=False)
                return None
            self._count(layer, hit=True)
            return (*row[:-1], value)

    def _buffer(self, table: str, row: tuple) -> None:
        with self._lock:
            if self._conn is None:
                return
            self._pending.append((table, row))

    # ------------------------------------------------------------------
    # the three cache layers
    # ------------------------------------------------------------------
    def get_detections(self, scope: bytes, fp: str, raw: str) -> "list | None":
        row = self._fetch(
            "memo",
            "SELECT payload FROM memo WHERE scope=? AND fingerprint=? AND raw=?",
            (scope.hex(), fp, raw),
        )
        return row[0] if row else None

    def put_detections(self, scope: bytes, fp: str, raw: str, detections: list) -> None:
        payload = _dumps(detections)
        if payload is not None:
            self._buffer("memo", (scope.hex(), fp, raw, payload))

    def get_annotations(self, dialect: str, raw: str) -> "tuple[str, object] | None":
        """Return ``(fingerprint, templates)`` for a cached parse, or None."""
        return self._fetch(
            "annotations",
            "SELECT fingerprint, payload FROM annotations WHERE dialect=? AND raw=?",
            (dialect, raw),
        )

    def put_annotations(self, dialect: str, raw: str, fp: str, templates) -> None:
        payload = _dumps(templates)
        if payload is not None:
            self._buffer("annotations", (dialect, raw, fp, payload))

    def get_corpus(self, key: str) -> "dict | None":
        row = self._fetch("corpus", "SELECT payload FROM corpus WHERE key=?", (key,))
        return row[0] if row and isinstance(row[0], dict) else None

    def put_corpus(self, key: str, payload: dict) -> None:
        blob = _dumps(payload)
        if blob is not None:
            self._buffer("corpus", (key, blob))

    # ------------------------------------------------------------------
    # flush / maintenance
    # ------------------------------------------------------------------
    _INSERTS = {
        "memo": "INSERT OR REPLACE INTO memo "
        "(scope, fingerprint, raw, payload) VALUES (?, ?, ?, ?)",
        "annotations": "INSERT OR REPLACE INTO annotations "
        "(dialect, raw, fingerprint, payload) VALUES (?, ?, ?, ?)",
        "corpus": "INSERT OR REPLACE INTO corpus (key, payload) VALUES (?, ?)",
    }

    def flush(self) -> None:
        """Write buffered puts in one transaction and keep the row ceiling."""
        with self._lock:
            if self._conn is None or not self._pending:
                self._pending.clear()
                return
            pending, self._pending = self._pending, []
            try:
                with self._conn:
                    for table, row in pending:
                        self._conn.execute(self._INSERTS[table], row)
                    # Inside the write transaction: no other process can
                    # insert between a table's probe and its trim.
                    entries = sum(self._trim(table) for table in _TABLES)
            except (sqlite3.Error, OSError) as error:
                if _contended(error):
                    # The batch rolled back; the file is intact.
                    self._invalidate(REASON_BUSY)
                else:
                    self._io_failure()
                return
            metrics = get_metrics()
            if metrics.enabled:
                metrics.persistent_memo_entries.set(entries)

    def _trim(self, table: str) -> int:
        """Keep *table* within ``max_rows``; return a bound on its rows.

        Every insert or replace takes rowid ``max + 1``, so the lowest
        rowids are the oldest writes and the span ``max - min + 1`` bounds
        the row count.  Each subquery holds one aggregate, which SQLite
        answers from one end of the rowid b-tree: no scan.  Over the
        ceiling, the oldest rows go down to 7/8 of it, so a full store
        pays one range delete per ``max_rows // 8`` writes.
        """
        low, high = self._conn.execute(
            f"SELECT (SELECT min(rowid) FROM {table}), (SELECT max(rowid) FROM {table})"
        ).fetchone()
        if high is None:
            return 0
        if high - low < self.max_rows:
            return high - low + 1
        keep = self.max_rows - self.max_rows // 8
        self._conn.execute(f"DELETE FROM {table} WHERE rowid <= ?", (high - keep,))
        return keep

    def info(self) -> dict:
        """Occupancy + counter snapshot for health probes and ``memo_info``."""
        with self._lock:
            payload = {
                "path": self.path,
                "enabled": self.enabled,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "pending_writes": len(self._pending),
            }
            if self._conn is not None:
                try:
                    for table in _TABLES:
                        payload[f"{table}_rows"] = self._conn.execute(
                            f"SELECT COUNT(*) FROM {table}"
                        ).fetchone()[0]
                except (sqlite3.Error, OSError):
                    pass
            return payload


def _loads(blob) -> "object | None":
    """Unpickle a stored payload; any failure reads as 'no entry'."""
    try:
        return pickle.loads(blob)
    except Exception:  # noqa: BLE001 - corrupt bytes can raise anything
        return None


def _dumps(value) -> "bytes | None":
    """Pickle a payload; unpicklable values are simply not persisted."""
    try:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # noqa: BLE001 - user rules can attach anything
        return None


class PersistentAnnotationCache(AnnotationCache):
    """An :class:`AnnotationCache` with the persistent store as its L2.

    In-memory lookups behave exactly like the base class; a miss probes the
    store, and a store hit is promoted into the in-memory cache (so later
    occurrences hit L1) and re-counted as a hit — either way the caller
    skipped a parse, which is what the hit/miss stats mean.  Every put
    writes through (buffered until the store's next flush).
    """

    def __init__(self, maxsize: int, store: PersistentMemo, dialect_key: str):
        super().__init__(maxsize=maxsize)
        self._store = store
        self._dialect_key = dialect_key

    def get(self, raw: str, *, fp: "str | None" = None) -> "object | None":
        value = super().get(raw, fp=fp)
        if value is not None:
            return value
        row = self._store.get_annotations(self._dialect_key, raw)
        if row is None:
            return None
        stored_fp, value = row
        AnnotationCache.put(self, raw, value, fp=stored_fp)
        # The L1 probe above already counted a miss, but the caller is
        # getting templates and skipping the parse: reclassify as a hit.
        self.stats.misses -= 1
        self.stats.hits += 1
        return value

    def put(self, raw: str, value: object, *, fp: "str | None" = None) -> str:
        fp = super().put(raw, value, fp=fp)
        self._store.put_annotations(self._dialect_key, raw, fp, value)
        return fp
