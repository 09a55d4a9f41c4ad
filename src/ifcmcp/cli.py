"""Operator CLI: serve the MCP tools, manage model files, replay traces.

Trace scripts are JSON files of tool calls executed through the same
JSON-RPC dispatch path as a live client, so replays exercise schema
validation and error mapping. Steps may reference earlier results with
``$N.field.path`` placeholders (1-based step numbers).

Exit codes: 0 success, 1 failed assertion/step, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import IfcError, IoError, StepFailed
from .knowledge import index_corpus
from .model import IfcModel, new_model, open_model
from .service import (
    GROUP_SHORTHAND,
    GROUPS,
    Session,
    handle_request,
    serve_stdio,
    serve_tcp,
)

_REF_RE = re.compile(r"^\$(\d+)\.(.+)$")

NUMERIC_TOLERANCE = 1e-9


def _parse_groups(text: str | None) -> tuple[str, ...]:
    if not text:
        return GROUPS
    names = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        name = GROUP_SHORTHAND.get(part, part)
        if name not in GROUPS:
            raise SystemExit(f"unknown tool group {part!r} "
                             f"(choose from {', '.join(GROUPS)})")
        if name not in names:
            names.append(name)
    return tuple(names) or GROUPS


def _lookup(payload, path: str):
    value = payload
    for part in path.split("."):
        if isinstance(value, list):
            try:
                value = value[int(part)]
            except (ValueError, IndexError):
                raise KeyError(path)
        elif isinstance(value, dict):
            if part not in value:
                raise KeyError(path)
            value = value[part]
        else:
            raise KeyError(path)
    return value


def _substitute(value, results: list[dict], step_index: int):
    if isinstance(value, str):
        match = _REF_RE.match(value)
        if match:
            ref_step = int(match.group(1))
            if not 1 <= ref_step <= len(results):
                raise StepFailed(step_index,
                                 f"reference {value!r} points at a future step")
            try:
                return _lookup(results[ref_step - 1], match.group(2))
            except KeyError:
                raise StepFailed(step_index,
                                 f"step {ref_step} result has no field "
                                 f"{match.group(2)!r}")
        return value
    if isinstance(value, list):
        return [_substitute(v, results, step_index) for v in value]
    if isinstance(value, dict):
        return {k: _substitute(v, results, step_index) for k, v in value.items()}
    return value


def _values_match(expected, actual) -> bool:
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected == actual
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        return abs(float(expected) - float(actual)) <= NUMERIC_TOLERANCE
    if isinstance(expected, list) and isinstance(actual, list):
        return len(expected) == len(actual) and all(
            _values_match(e, a) for e, a in zip(expected, actual))
    return expected == actual


def run_trace(session: Session, script: dict) -> list[dict]:
    """Execute every step through the JSON-RPC dispatcher; abort on failure."""
    steps = script.get("steps")
    if not isinstance(steps, list) or not steps:
        raise StepFailed(0, "trace has no steps")
    results: list[dict] = []
    reports: list[dict] = []
    for number, step in enumerate(steps, start=1):
        tool = step.get("tool")
        if tool not in session.tools:
            raise StepFailed(number, f"unknown tool {tool!r}")
        args = _substitute(step.get("args", {}), results, number)
        response = handle_request(session, {
            "jsonrpc": "2.0",
            "id": number,
            "method": "tools/call",
            "params": {"name": tool, "arguments": args},
        })
        if response is None or "error" in response:
            detail = response["error"]["message"] if response else "no response"
            raise StepFailed(number, f"{tool}: {detail}")
        result = response["result"]
        payload = json.loads(result["content"][0]["text"])
        if result.get("isError"):
            error = payload.get("error", {})
            raise StepFailed(number, f"{tool}: {error.get('type')}: "
                                     f"{error.get('message')}")
        for path, expected in (step.get("expect") or {}).items():
            expected = _substitute(expected, results, number)
            try:
                actual = _lookup(payload, path)
            except KeyError:
                raise StepFailed(number, f"{tool}: result has no field {path!r}")
            if not _values_match(expected, actual):
                raise StepFailed(
                    number,
                    f"{tool}: expected {path} == {expected!r}, got {actual!r}")
        results.append(payload)
        reports.append({"step": number, "tool": tool, "payload": payload})
    return reports


def _load_trace(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(path, str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise StepFailed(0, f"trace is not valid JSON: {exc}") from exc


def _open_or_new(args) -> IfcModel:
    seed = getattr(args, "seed", None)
    if getattr(args, "model", None):
        try:
            return open_model(args.model, guid_seed=seed)
        except OSError as exc:
            raise IoError(args.model, str(exc)) from exc
    return new_model(guid_seed=seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ifcmcp",
        description="IFC building-model tool server and trace runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="serve MCP tools over stdio or TCP")
    p_serve.add_argument("--model", help="IFC file to load (default: fresh model)")
    p_serve.add_argument("--groups", help="tool groups, e.g. q,c,e,k,s or query,create")
    p_serve.add_argument("--tcp", type=int, help="listen on 127.0.0.1:PORT instead of stdio")
    p_serve.add_argument("--seed", type=int, help="deterministic GUID stream (testing only)")
    p_serve.add_argument("--corpus", help="directory to index for search_ifc_knowledge")

    p_new = sub.add_parser("new", help="write a fresh model")
    p_new.add_argument("out", nargs="?", default="model.ifc")
    p_new.add_argument("--name", default="My Project")
    p_new.add_argument("--seed", type=int)

    p_open = sub.add_parser("open", help="parse a model and print its overview")
    p_open.add_argument("file")

    p_save = sub.add_parser("save", help="parse a model and re-save it normalized")
    p_save.add_argument("file")
    p_save.add_argument("out")

    p_replay = sub.add_parser("replay", help="run a recorded tool-call trace")
    p_replay.add_argument("trace")
    p_replay.add_argument("--model", help="starting model (default: fresh)")
    p_replay.add_argument("--seed", type=int)
    p_replay.add_argument("--save", help="write the final model here")

    p_snap = sub.add_parser("snapshot", help="render a plan or elevation SVG")
    p_snap.add_argument("file")
    p_snap.add_argument("--plan", help="write a plan view SVG to this path")
    p_snap.add_argument("--elevation", choices=["north", "south", "east", "west"])
    p_snap.add_argument("--out", help="output path for --elevation")
    p_snap.add_argument("--storey", help="storey GUID for the plan cut")
    p_snap.add_argument("--cut-height", type=float, default=1.2)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except IoError as exc:
        print(f"ifcmcp: IoError: {exc}", file=sys.stderr)
        return 2
    except StepFailed as exc:
        print(f"ifcmcp: {exc}", file=sys.stderr)
        return 1
    except IfcError as exc:
        print(f"ifcmcp: {exc.type_name}: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "serve":
        groups = _parse_groups(args.groups)
        knowledge = index_corpus(args.corpus) if args.corpus else None

        def session_factory() -> Session:
            model = _open_or_new(args)
            return Session(model, groups=groups, knowledge=knowledge)

        if args.tcp:
            serve_tcp(args.tcp, session_factory)
            return 0
        return serve_stdio(session_factory())

    if args.command == "new":
        model = new_model(args.name, guid_seed=args.seed)
        model.save(args.out)
        print(f"wrote {args.out} ({len(model.entities)} entities)")
        return 0

    if args.command == "open":
        try:
            model = open_model(args.file)
        except OSError as exc:
            raise IoError(args.file, str(exc)) from exc
        from .scene import get_ifc_scene_overview
        print(json.dumps(get_ifc_scene_overview(model), indent=2))
        return 0

    if args.command == "save":
        try:
            model = open_model(args.file)
        except OSError as exc:
            raise IoError(args.file, str(exc)) from exc
        model.save(args.out)
        print(f"wrote {args.out} ({len(model.entities)} entities)")
        return 0

    if args.command == "replay":
        script = _load_trace(args.trace)
        model = _open_or_new(args)
        session = Session(model)
        try:
            reports = run_trace(session, script)
        except StepFailed as exc:
            print(f"step {exc.index}: FAIL ({exc.reason})")
            return 1
        for report in reports:
            print(f"step {report['step']}: PASS {report['tool']}")
        if args.save:
            model.save(args.save)
            print(f"saved {args.save}")
        return 0

    if args.command == "snapshot":
        from .snapshot import render_elevation, render_plan
        try:
            model = open_model(args.file)
        except OSError as exc:
            raise IoError(args.file, str(exc)) from exc
        wrote = False
        if args.plan:
            svg = render_plan(model, storey_guid=args.storey,
                              cut_height=args.cut_height)
            with open(args.plan, "w", encoding="utf-8") as fh:
                fh.write(svg)
            print(f"wrote {args.plan}")
            wrote = True
        if args.elevation:
            if not args.out:
                raise StepFailed(0, "--elevation needs --out PATH")
            svg = render_elevation(model, args.elevation)
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(svg)
            print(f"wrote {args.out}")
            wrote = True
        if not wrote:
            raise StepFailed(0, "nothing to do: pass --plan and/or --elevation")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
