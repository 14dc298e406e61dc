"""User-facing interfaces: CLI, interactive shell, and REST (§7)."""
from importlib import import_module

from .rest import RestServer, create_server, handle_check_request

__all__ = ["RestServer", "SQLCheckShell", "cli_main", "create_server", "handle_check_request"]

# Names that live in (or import) ``repro.interfaces.cli`` resolve lazily:
# importing the package must not import that module, or
# ``python -m repro.interfaces.cli`` finds it already in ``sys.modules``
# and warns on every start.
_LAZY = {"cli_main": (".cli", "main"), "SQLCheckShell": (".shell", "SQLCheckShell")}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attribute = _LAZY[name]
    return getattr(import_module(module, __name__), attribute)
