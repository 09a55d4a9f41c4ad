"""IFC building-model toolkit with an MCP tool server.

Layers, bottom up: STEP file kernel (:mod:`ifcmcp.step`,
:mod:`ifcmcp.guid`), typed model graph (:mod:`ifcmcp.model`), parametric
geometry (:mod:`ifcmcp.geometry`, :mod:`ifcmcp.skeleton`), element
builders (:mod:`ifcmcp.builders`), read-only scene context
(:mod:`ifcmcp.scene`, :mod:`ifcmcp.snapshot`), the query DSL
(:mod:`ifcmcp.dsl`), lexical retrieval (:mod:`ifcmcp.knowledge`), and the
JSON-RPC service (:mod:`ifcmcp.service`) driven by :mod:`ifcmcp.cli`.

Importing the package loads the kernel and the model graph only. The tool
layers in ``LAYERS`` load at their first read as a package attribute
(``ifcmcp.dsl``, PEP 562), so a server answers its first request without
them, and each loads at the first tool call that needs it. Geometry is one
of them: the model reads ``ifcmcp.geometry`` when it first resolves a
placement. The modules a server imports before its first reply use no
dataclass, and nothing there imports ``secrets`` or ``datetime``.
"""

import importlib

from .guid import guid_decode, guid_encode
from .model import IfcModel, load_model, new_model, open_model
from .step import parse_step, write_step

__version__ = "0.1.0"

LAYERS = frozenset({"builders", "dsl", "geometry", "scene", "snapshot"})


def __getattr__(name: str):
    # import_module reuses a module already in sys.modules, and its
    # per-module lock makes a second thread wait for a first import
    if name in LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "IfcModel",
    "guid_decode",
    "guid_encode",
    "load_model",
    "new_model",
    "open_model",
    "parse_step",
    "write_step",
    "__version__",
]
