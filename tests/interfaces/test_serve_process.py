"""``sqlcheck serve`` and ``python -m repro.interfaces.cli`` as real processes.

A Ctrl-C that lands at any moment after the server announces itself must
drain, flush the memo and exit 0 — never escape as a ``KeyboardInterrupt``
traceback — and running the CLI module must not trip ``runpy``'s
"found in sys.modules" ``RuntimeWarning``.
"""
from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
STARTS = 20


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_cli_module_runs_without_runtime_warning():
    completed = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.interfaces.cli", "--help"],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert "RuntimeWarning" not in completed.stderr


@pytest.mark.skipif(os.name != "posix", reason="SIGINT delivery needs POSIX signals")
def test_sigint_right_after_serving_on_always_exits_cleanly(tmp_path):
    for start in range(STARTS):
        memo = tmp_path / f"memo-{start}.sqlite"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.interfaces.cli", "serve",
                "--port", "0", "--memo-cache", str(memo),
            ],
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        seen = []
        try:
            for line in process.stderr:
                seen.append(line)
                if "serving on" in line:
                    process.send_signal(signal.SIGINT)
                    break
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        # Read through the text wrappers: they may hold read-ahead bytes.
        stderr = "".join(seen) + process.stderr.read()
        stdout = process.stdout.read()
        process.stdout.close()
        process.stderr.close()
        assert process.returncode == 0, f"start {start}: exit {process.returncode}\n{stderr}"
        assert "Traceback" not in stderr, f"start {start}:\n{stderr}"
        assert "server stopped" in stdout
