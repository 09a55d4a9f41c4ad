"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of the ``ifcmcp`` modules. Each name is
patched wherever a caller looks it up: in its own module and in every
module that imported it by name (``ifcmcp.model.parse_step`` as well as
``ifcmcp.step.parse_step``). A span records its name, start, end, parent
span and the request id of the ``tools/call``, open or save it belongs to.
Spans stay in memory until :meth:`Tracer.write_spans`. Self time is a
span's duration minus the time its child spans cover; garbage-collector
pauses, taken from ``gc.callbacks``, are spans of their own
(``python.gc``), so a layer's self time excludes them.
"""

from __future__ import annotations

import functools
import gc
import gzip
import importlib
import json
import time
from pathlib import Path

# layer functions timed as spans: label -> (module, attribute)
SPANNED = {
    "step.parse_step": ("step", "parse_step"),
    "step.write_step": ("step", "write_step"),
    "model.load_model": ("model", "load_model"),
    "model.open_model": ("model", "open_model"),
    "model.rebuild_indexes": ("model", "IfcModel.rebuild_indexes"),
    "model.storey_of": ("model", "IfcModel.storey_of"),
    "model.contain_in_storey": ("model", "IfcModel.contain_in_storey"),
    "model.resolve_placement": ("model", "IfcModel.resolve_placement"),
    "model.save": ("model", "IfcModel.save"),
    "model.delete_element": ("model", "delete_element"),
    "model.find_pset_rel": ("model", "find_pset_rel"),
    "model.psets_of": ("model", "psets_of"),
    "model.add_property_set": ("model", "add_property_set"),
    "model.add_classification": ("model", "add_classification"),
    "model.edit_attributes": ("model", "edit_attributes"),
    "model.set_owner_history": ("model", "set_owner_history"),
    "service.serve_stdio": ("service", "serve_stdio"),
    "service.handle_request": ("service", "handle_request"),
    "service.validate_args": ("service", "validate_args"),
    "builders.create_wall_chain": ("builders", "create_wall_chain"),
    "builders.create_wall": ("builders", "create_wall"),
    "builders.create_door": ("builders", "create_door"),
    "builders.create_window": ("builders", "create_window"),
    "builders.create_slab": ("builders", "create_slab"),
    "builders.create_roof_over_walls": ("builders", "create_roof_over_walls"),
    "geometry.extrude_profile": ("geometry", "extrude_profile"),
    "geometry.mesh_to_brep": ("geometry", "mesh_to_brep"),
    "geometry.ear_clip": ("geometry", "ear_clip"),
    "skeleton.hip_roof_solid": ("skeleton", "hip_roof_solid"),
    "measure.body_of": ("measure", "body_of"),
    "measure.world_bbox": ("measure", "world_bbox"),
    "measure.wall_axis": ("measure", "wall_axis"),
    "measure.world_mesh": ("measure", "world_mesh"),
    "scene.get_ifc_scene_overview": ("scene", "get_ifc_scene_overview"),
    "scene.get_object_info": ("scene", "get_object_info"),
    "scene.get_scene_info": ("scene", "get_scene_info"),
    "scene.get_door_properties": ("scene", "get_door_properties"),
    "scene.products_in_order": ("scene", "products_in_order"),
    "dsl.parse_query": ("dsl", "parse_query"),
    "dsl.eval_query": ("dsl", "eval_query"),
    "knowledge.index_corpus": ("knowledge", "index_corpus"),
    "knowledge.KnowledgeIndex.search": ("knowledge", "KnowledgeIndex.search"),
    "snapshot.render_plan": ("snapshot", "render_plan"),
    "snapshot.render_elevation": ("snapshot", "render_elevation"),
}

# hot helpers whose calls are only counted
COUNTED = {
    "model.add": ("model", "IfcModel.add"),
    "guid.GuidGenerator.fresh": ("guid", "GuidGenerator.fresh"),
}
GC_SPAN = "python.gc"
DELETE_SPAN = "model.delete_element"

SNAPSHOT_SPANS = ("snapshot.render_plan", "snapshot.render_elevation")


def _resolve(module, attribute: str):
    owner = module
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []        # (id, parent, name index, start ns, end ns, request)
        self.stack: list[list] = []         # [span id, child ns]
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.snapshot_depth = 0              # nesting depth of snapshot render spans
        self.request = None
        self.patched: list[tuple] = []       # (owner, name, original)
        self._iter_refs = None               # the plain model.iter_refs during a delete
        self._gc_frames: list[list] = []
        self._gc_start = 0
        self._gc_index = -1

    def set_request(self, request):
        self.request = request

    # --- span bookkeeping -----------------------------------------------------

    def _enter(self) -> list:
        frame = [len(self.spans) + len(self.stack) + 1, 0]
        self.stack.append(frame)
        return frame

    def _exit(self, name: str, index: int, frame: list, start: int, end: int):
        self.stack.pop()
        duration = end - start
        parent = None
        if self.stack:
            self.stack[-1][1] += duration
            parent = self.stack[-1][0]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - frame[1]
        self.spans.append((frame[0], parent, index, start, end, self.request))

    def count(self, key: str, amount: int = 1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap_span(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        tracer = self
        clock = time.perf_counter_ns
        in_snapshot = name in ("model.resolve_placement", "measure.body_of")
        watched = name in SNAPSHOT_SPANS
        deleting = name == DELETE_SPAN

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if in_snapshot and tracer.snapshot_depth:
                tracer.count(f"snapshot.{name.split('.')[-1]}")
            if watched:
                tracer.snapshot_depth += 1
            if deleting:
                tracer._count_delete_refs(True)
            frame = tracer._enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._exit(name, index, frame, start, end)
                if watched:
                    tracer.snapshot_depth -= 1
                if deleting:
                    tracer._count_delete_refs(False)
            tracer._work(name, args, result)
            return result
        return span

    def _work(self, name: str, args, result):
        """Units of work some layers report next to their time."""
        if name == "step.parse_step":
            self.count("step.parse_step.entities", len(result[1]))
        elif name == "step.write_step":
            self.count("step.write_step.entities", len(args[1]))
        elif name == DELETE_SPAN:
            self.count("model.delete_element.removed", result)
        elif name == "scene.products_in_order" and self.snapshot_depth:
            self.count("snapshot.products", len(result))

    def _count_delete_refs(self, on: bool):
        """Count ``iter_refs`` in ``ifcmcp.model`` while ``delete_element`` runs.

        The counting wrapper is in place only during a delete, so parsing,
        writing and index rebuilds call the plain function and their self
        times stay the program's own.
        """
        model = importlib.import_module("ifcmcp.model")
        if not on:
            model.iter_refs = self._iter_refs
            return
        self._iter_refs = plain = model.iter_refs
        tracer = self

        def iter_refs(value):
            refs = list(plain(value))
            tracer.count("model.delete_element.iter_refs_calls")
            tracer.count("model.delete_element.refs_walked", len(refs))
            return iter(refs)
        model.iter_refs = iter_refs

    def _wrap_count(self, name: str, fn):
        tracer = self
        key = f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)
        return counted

    def _gc(self, phase: str, info: dict):
        if phase == "start":
            self._gc_frames.append(self._enter())
            self._gc_start = time.perf_counter_ns()
        elif self._gc_frames:
            end = time.perf_counter_ns()
            self._exit(GC_SPAN, self._gc_index, self._gc_frames.pop(), self._gc_start, end)

    # --- patching ---------------------------------------------------------------

    def install(self):
        modules = {name: importlib.import_module(f"ifcmcp.{name}") for name in {
            module for module, _ in list(SPANNED.values()) + list(COUNTED.values())}}
        for label, (module_name, attribute) in list(SPANNED.items()) + list(COUNTED.items()):
            module = modules[module_name]
            owner, name = _resolve(module, attribute)
            original = getattr(owner, name)
            if label in COUNTED:
                wrapper = self._wrap_count(label, original)
            else:
                wrapper = self._wrap_span(label, original)
            self._patch(owner, name, original, wrapper)
            if owner is module:
                # callers that imported the function by name
                for other in modules.values():
                    if other is not module and other.__dict__.get(name) is original:
                        self._patch(other, name, original, wrapper)
        self._gc_index = len(self.names)
        self.names.append(GC_SPAN)
        gc.callbacks.append(self._gc)

    def original(self, label: str):
        """The unwrapped function behind a span label."""
        module, attribute = SPANNED[label]
        owner, name = _resolve(importlib.import_module(f"ifcmcp.{module}"), attribute)
        for patched_owner, patched_name, original in self.patched:
            if patched_owner is owner and patched_name == name:
                return original
        return getattr(owner, name)

    def _patch(self, owner, name: str, original, wrapper):
        setattr(owner, name, wrapper)
        self.patched.append((owner, name, original))

    def uninstall(self):
        if self._gc in gc.callbacks:
            gc.callbacks.remove(self._gc)
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)
        self.patched.clear()

    # --- output -------------------------------------------------------------------

    def report(self) -> dict:
        """Per-layer totals: calls and self milliseconds per span name, plus counters."""
        layers = {name: {"calls": self.calls[name], "self_ms": self.self_ns[name] / 1e6}
                  for name in sorted(self.calls)}
        return {"layers": layers, "counts": dict(sorted(self.counts.items())),
                "spans": len(self.spans)}

    def write_spans(self, path: Path):
        """Gzipped JSON lines, one array per span: id, parent, name, start ns, end ns, request."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, parent, index, start, end, request in self.spans:
                fh.write(json.dumps([span_id, parent, names[index], start, end, request]))
                fh.write("\n")
