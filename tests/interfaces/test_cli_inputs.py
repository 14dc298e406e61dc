"""CLI input and output edges: unreadable files and a closed stdout.

An input file that is missing or not UTF-8 ends in exit code 2 and one
``sqlcheck: error [<code>]: <path>: <reason>`` line on every command that
reads SQL files; a reader that closes the pipe early (``| head``) ends the
process without a traceback.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import CODE_BAD_REQUEST, CODE_SOURCE_UNAVAILABLE
from repro.interfaces.cli import run

SRC = Path(__file__).resolve().parents[2] / "src"

#: every command that reads SQL files named on its command line
_COMMANDS = [[], ["profile"], ["selftest"]]


@pytest.fixture
def not_utf8(tmp_path) -> Path:
    path = tmp_path / "latin1.sql"
    path.write_bytes(b"SELECT * FROM t;\n-- caf\xe9 \xff\n")
    return path


@pytest.mark.parametrize("command", _COMMANDS, ids=["check", "profile", "selftest"])
def test_missing_file_is_a_structured_error(tmp_path, command):
    path = tmp_path / "missing.sql"
    code, output = run([*command, str(path)])
    assert code == 2
    assert output == (
        f"sqlcheck: error [{CODE_SOURCE_UNAVAILABLE}]: {path}: No such file or directory"
    )


@pytest.mark.parametrize("command", _COMMANDS, ids=["check", "profile", "selftest"])
def test_non_utf8_file_is_a_structured_error(not_utf8, command):
    code, output = run([*command, str(not_utf8)])
    assert code == 2
    assert output.startswith(f"sqlcheck: error [{CODE_BAD_REQUEST}]: {not_utf8}: ")
    assert "UTF-8" in output and "0xe9" in output
    assert "\n" not in output


def test_directory_is_a_structured_error(tmp_path):
    code, output = run([str(tmp_path)])
    assert code == 2
    assert output.startswith(f"sqlcheck: error [{CODE_SOURCE_UNAVAILABLE}]: {tmp_path}: ")


def test_closed_stdout_ends_without_a_traceback(tmp_path):
    script = tmp_path / "app.sql"
    # Enough findings that the SARIF log outgrows any pipe buffer, so the
    # write is still in progress when the reader goes away.
    script.write_text(
        "\n".join(f"SELECT * FROM t{i} ORDER BY RAND();" for i in range(300)),
        encoding="utf-8",
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.interfaces.cli", "--format", "sarif", str(script)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        head = [process.stdout.readline() for _ in range(5)]
        process.stdout.close()
        stderr = process.stderr.read().decode("utf-8", "replace")
        process.wait(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stderr.close()
    assert head[0] == b"{\n"
    assert "Traceback" not in stderr, stderr
    assert "BrokenPipeError" not in stderr, stderr
    assert process.returncode == 1
