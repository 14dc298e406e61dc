"""Traced ``sqlcheck serve``: install the layer wrappers, then run the CLI.

Usage::

    python3 perfbench/serve_boot.py <spans.json> serve --port 0 --memo-cache PATH

The server process is the same as the untraced ``python -m
repro.interfaces.cli serve ...`` (one process, the CLI's own ``serve``
entry point); only the wrappers from ``tracing.py`` are added.  The spans
are written to ``<spans.json>`` when the server stops (Ctrl-C / SIGINT).
"""
from __future__ import annotations

import sys

import tracing


def main(argv: "list[str]") -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.interfaces.cli import main as cli_main

    try:
        return cli_main(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
