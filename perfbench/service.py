"""The ``rest-service`` workload: a real ``sqlcheck serve`` subprocess
driven by closed-loop keep-alive clients.

:class:`Server` starts ``python -m repro.interfaces.cli serve --port 0
--memo-cache <store>`` (or, traced, ``perfbench/serve_boot.py`` with the
same arguments), keeps draining its stderr, learns the port from the
"serving on" line wherever it appears (a ``RuntimeWarning`` precedes it),
and is ready at the first 200 from ``GET /api/health``.
:func:`closed_loop` runs the clients: each sends its next request only
after the previous reply arrived.
"""
from __future__ import annotations

import http.client
import json
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

_SERVING = re.compile(r"serving on http://([\d.]+):(\d+)")

#: Longest wait for a server to become ready or to stop.
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0
#: Pause before the SIGINT, so the CLI is already waiting for it.
STOP_SETTLE_S = 0.1
#: Consecutive requests sent to one server when the clients alternate.
BLOCK = 100


def server_for(index: int, servers: int) -> int:
    """Which of ``servers`` request ``index`` goes to."""
    return (index // BLOCK) % servers


class Server:
    """One ``sqlcheck serve`` process (always stopped by :meth:`stop`)."""

    def __init__(self, root: Path, env: dict, store: Path, spans: "Path | None" = None):
        if spans is None:
            command = [sys.executable, "-m", "repro.interfaces.cli"]
        else:
            command = [sys.executable, str(root / "perfbench" / "serve_boot.py"), str(spans)]
        command += ["serve", "--port", "0", "--memo-cache", str(store)]
        self._address: "tuple[str, int] | None" = None
        self._found = threading.Event()
        self.stderr_tail: "list[str]" = []
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._drainer = threading.Thread(target=self._drain, daemon=True)
        self._drainer.start()

    def _drain(self) -> None:
        for line in self.process.stderr:
            self.stderr_tail = (self.stderr_tail + [line.rstrip()])[-20:]
            match = _SERVING.search(line)
            if match and self._address is None:
                self._address = (match.group(1), int(match.group(2)))
                self._found.set()
        self._found.set()

    @property
    def address(self) -> "tuple[str, int]":
        assert self._address is not None
        return self._address

    def wait_ready(self) -> float:
        """Seconds from spawn to the first 200 from ``GET /api/health``."""
        deadline = self.started + START_TIMEOUT_S
        self._found.wait(START_TIMEOUT_S)
        if self._address is None:
            raise RuntimeError("server exited before serving: " + " | ".join(self.stderr_tail))
        while time.perf_counter() < deadline:
            try:
                if self.get("/api/health")[0] == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never answered /api/health")

    def get(self, path: str) -> "tuple[int, dict]":
        conn = http.client.HTTPConnection(*self.address, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def stop(self) -> int:
        """Ctrl-C the server (graceful drain + memo flush), then reap it."""
        if self.process.poll() is None:
            # The CLI prints "serving on" just before it starts waiting for
            # Ctrl-C; a SIGINT that lands in between escapes as a traceback.
            time.sleep(STOP_SETTLE_S)
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._drainer.join(STOP_TIMEOUT_S)
        return self.process.returncode


def closed_loop(addresses: "list[tuple[str, int]]", requests: "list[tuple[str, str]]",
                clients: int, seconds: float, min_requests: int,
                max_seconds: float, checkpoint=None) -> "tuple[list[tuple], float]":
    """Closed-loop load: ``clients`` clients, each waiting for its reply
    before sending the next request of ``requests`` (taken in order) over
    a keep-alive connection to the server :func:`server_for` picks.  Runs
    until ``seconds`` have passed and ``min_requests`` replies arrived.
    ``checkpoint``, a ``(count, callback)`` pair, calls ``callback()`` once
    when ``count`` replies have arrived.  Returns ``(index, latency_s,
    status, detections or error)`` per request (the detections are
    canonical JSON text) and the seconds from the first request to the
    last reply.
    """
    lock = threading.Lock()
    state = {"next": 0, "done": 0}
    results: "list[tuple]" = []
    begin = time.perf_counter()

    def claim() -> "int | None":
        with lock:
            elapsed = time.perf_counter() - begin
            finished = elapsed >= seconds and state["done"] >= min_requests
            if finished or elapsed > max_seconds or state["next"] >= len(requests):
                return None
            index = state["next"]
            state["next"] += 1
            return index

    def client() -> None:
        conns = [http.client.HTTPConnection(*address, timeout=30) for address in addresses]
        try:
            while True:
                index = claim()
                if index is None:
                    return
                target = server_for(index, len(addresses))
                conn = conns[target]
                body = json.dumps({"query": requests[index][0]})
                start = time.perf_counter()
                try:
                    conn.request("POST", "/api/check", body,
                                 {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    data = response.read()
                except (OSError, http.client.HTTPException) as error:
                    latency = time.perf_counter() - start
                    outcome = (index, latency, 0, f"{type(error).__name__}: {error}")
                    conn.close()
                    conns[target] = http.client.HTTPConnection(*addresses[target], timeout=30)
                else:
                    latency = time.perf_counter() - start
                    detections = None
                    if response.status == 200:
                        detections = json.dumps(
                            json.loads(data).get("detections"), sort_keys=True
                        )
                    outcome = (index, latency, response.status, detections)
                with lock:
                    results.append(outcome)
                    state["done"] += 1
                    reached = checkpoint is not None and state["done"] == checkpoint[0]
                if reached:
                    checkpoint[1]()
        finally:
            for conn in conns:
                conn.close()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, time.perf_counter() - begin
