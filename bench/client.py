"""One benchmark client: a closed loop of JSON-RPC lines through ``serve_stdio``.

Run as a script this is the workload process: it sets up the way
``ifcmcp serve --model F --corpus docs/knowledge`` does, sends every call
of the plan as a raw JSON-RPC line to ``service.serve_stdio`` and reads the
reply line back, checks each reply against the generator's expectation,
and opens and saves model files through ``model.open_model`` and
``IfcModel.save``. It writes its raw measurements as JSON to ``--out``.

    python3 bench/client.py --plan PLAN.json --out RESULT.json [--seconds S] [--reopen 0|1]
                            [--trace SPANS]
    python3 bench/client.py --plan PLAN.json --setup-only

``ifcmcp`` is imported only inside the timed set-up, never at module load.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import re
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "docs" / "knowledge"

_REF_RE = re.compile(r"^\$(\d+)\.(.+)$")
_GROUP_ID_RE = re.compile(r'<g id="([^"]*)">')
_WALL_FILL = 'fill="#4a4a4a"'
MAX_REPORTED_FAILURES = 20


def use_source_tree():
    """Import ``ifcmcp`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "ifcmcp" / "__init__.py").is_file():
        raise SystemExit(f"bench: no ifcmcp sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ifcmcp
    if Path(ifcmcp.__file__).resolve().parent != SRC / "ifcmcp":
        raise SystemExit(f"bench: imported ifcmcp from {ifcmcp.__file__}, not {SRC}")


# --- reference substitution and checks ----------------------------------------

def lookup(payload, path: str):
    value = payload
    for part in path.split("."):
        if isinstance(value, list):
            value = value[int(part)]
        elif isinstance(value, dict):
            value = value[part]
        else:
            raise KeyError(path)
    return value


def substitute(value, results: list):
    if isinstance(value, str):
        match = _REF_RE.match(value)
        if match:
            return lookup(results[int(match.group(1)) - 1], match.group(2))
        return value
    if isinstance(value, list):
        return [substitute(v, results) for v in value]
    if isinstance(value, dict):
        return {k: substitute(v, results) for k, v in value.items()}
    return value


def flatten(values) -> list:
    flat = []
    for value in values:
        flat.extend(flatten(value) if isinstance(value, list) else [value])
    return flat


def check_failures(checks: list, payload, results: list) -> list[str]:
    """Messages for every check the payload fails."""
    failed = []
    for check in checks:
        kind = check[0]
        try:
            if kind == "plan_walls":
                svg = payload["svg"]
                expected = set(flatten(substitute(check[1], results)))
                ids = _GROUP_ID_RE.findall(svg)
                ok = (svg.count(_WALL_FILL) == len(expected)
                      and all(ids.count(guid) == 1 for guid in expected))
            elif kind == "svg_groups":
                ok = len(_GROUP_ID_RE.findall(payload["svg"])) == check[1]
            else:
                actual = lookup(payload, check[1])
                want = substitute(check[2], results)
                if kind == "eq":
                    ok = actual == want
                elif kind == "approx":
                    ok = math.isclose(actual, want, rel_tol=1e-6, abs_tol=1e-9)
                elif kind == "len":
                    ok = len(actual) == want
                elif kind == "gt":
                    ok = actual > want
                else:
                    ok = False
        except (KeyError, IndexError, TypeError, ValueError):
            ok = False
        if not ok:
            failed.append(f"check {check!r} failed")
    return failed


# --- the client ---------------------------------------------------------------

class Client:
    """Sends plan calls through ``serve_stdio`` and records what came back."""

    def __init__(self, session):
        from ifcmcp import service
        self.serve_stdio = service.serve_stdio
        self.session = session
        self.latency: dict[str, list[float]] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.response_bytes = 0
        self.svg_bytes = 0
        self.svg_sha256: list[str] = []
        self.request_id = 0
        self.on_request = None   # tracer hook: called with each request id

    def fail(self, message: str):
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(message)

    def run(self, calls: list[dict]) -> list:
        """Send every call in order; returns the decoded result payloads."""
        results: list = []
        for number, call in enumerate(calls, start=1):
            results.append(self.call(number, call, results))
        return results

    def call(self, number: int, call: dict, results: list):
        self.attempted += 1
        self.request_id += 1
        try:
            arguments = substitute(call["args"], results)
        except (KeyError, IndexError, ValueError):
            self.fail(f"call {number} {call['tool']}: unresolved reference")
            return None
        line = json.dumps({"jsonrpc": "2.0", "id": self.request_id, "method": "tools/call",
                           "params": {"name": call["tool"], "arguments": arguments}}) + "\n"
        if self.on_request is not None:
            self.on_request(self.request_id)
        stdin, stdout = io.StringIO(line), io.StringIO()
        start = time.perf_counter()
        self.serve_stdio(self.session, stdin, stdout)
        elapsed = time.perf_counter() - start
        reply = stdout.getvalue()
        self.latency.setdefault(call["group"], []).append(elapsed * 1000.0)
        self.response_bytes += len(reply.encode("utf-8"))

        response = json.loads(reply)
        payload = None
        if "error" in response:
            outcome = "invalid_params" if response["error"]["code"] == -32602 \
                else f"rpc{response['error']['code']}"
        else:
            result = response["result"]
            payload = json.loads(result["content"][0]["text"])
            outcome = payload["error"]["type"] if result.get("isError") else "ok"
        if outcome != call["expect"]:
            self.fail(f"call {number} {call['tool']}: expected {call['expect']}, got {outcome}"
                      + (f" ({payload['error']['message']})" if outcome != "ok" and payload else ""))
            return payload
        if outcome == "ok":
            problems = check_failures(call["checks"], payload, results)
            if problems:
                self.fail(f"call {number} {call['tool']}: " + "; ".join(problems))
            if isinstance(payload.get("svg"), str):
                data = payload["svg"].encode("utf-8")
                self.svg_bytes += len(data)
                self.svg_sha256.append(hashlib.sha256(data).hexdigest())
        return payload


def make_session(model, knowledge):
    from ifcmcp.service import Session
    return Session(model, knowledge=knowledge)


# --- start files ----------------------------------------------------------------

def build_start_file(recipe: dict, path: Path) -> dict | None:
    """Write the start file of a workload; returns the catalog of its GUIDs.

    The empty building (named storeys, no elements) is made with the model
    API. A recipe with ``build`` calls is then grown through the JSON-RPC
    path, each reply checked, and the catalog maps every room to the GUIDs
    its calls returned.
    """
    from ifcmcp.model import add_storey, new_model, open_model
    model = new_model("Benchmark Project", guid_seed=recipe["guid_seed"])
    storey = model.entities[model.storey_ids[0]]
    model.set_attr(storey, "Name", recipe["storeys"][0])
    for index, name in enumerate(recipe["storeys"][1:], start=1):
        add_storey(model, name, index * recipe["storey_height"])
    model.save(str(path))
    build = recipe.get("build")
    if build is None:
        return None
    client = Client(make_session(open_model(str(path), guid_seed=build["guid_seed"]), None))
    results = client.run(build["calls"])
    if client.failed:
        raise RuntimeError("start file build failed: " + "; ".join(client.failures))
    client.session.model.save(str(path))
    return {
        "rooms": recipe["rooms"],
        "handles": [{key: substitute(value, results) if value else None
                     for key, value in handle.items()} for handle in build["handles"]],
        "storey_guids": [s["guid"] for s in results[0]["storeys"]],
    }


# --- the workload process -------------------------------------------------------

def set_up(start_path: str, guid_seed: int):
    """What ``ifcmcp serve --model F --corpus docs/knowledge`` does first."""
    use_source_tree()
    from ifcmcp.knowledge import index_corpus
    from ifcmcp.model import open_model
    model = open_model(start_path, guid_seed=guid_seed)
    knowledge = index_corpus(CORPUS)
    return make_session(model, knowledge), knowledge


def timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def final_checks(client: Client, model, data: bytes, reopened, totals: dict, write_step):
    """The saved file reopens to the same graph and the expected element counts."""
    client.attempted += 1
    if len(reopened.entities) != len(model.entities):
        client.fail(f"reopened {len(reopened.entities)} entities, saved {len(model.entities)}")
    elif write_step(reopened.header, reopened.entities) != data:
        client.fail("write_step(parse_step(saved bytes)) differs from the saved bytes")
    classes = {"walls": "IFCWALL", "doors": "IFCDOOR", "windows": "IFCWINDOW",
               "slabs": "IFCSLAB", "roofs": "IFCROOF"}
    for key, class_name in classes.items():
        client.attempted += 1
        count = len(reopened.by_class.get(class_name, ()))
        if count != totals[key]:
            client.fail(f"saved model has {count} {key}, expected {totals[key]}")


def run_workload(plan: dict, start_path: str, workdir: Path, seconds: float,
                 reopen_last: bool = True, tracer=None) -> dict:
    """Set up, then run passes over the plan for ``seconds``; raw measurements.

    A pass sends every session's calls, at least once and until ``seconds``
    have passed. Each session ends with a save, and sessions after the
    first open the file the previous one saved. A plan that edits the model
    starts each pass from the start file again; a read-only plan goes on
    with the same session, after the saved file has been reopened and
    checked. With ``reopen_last`` the last saved file is opened once more
    and checked against what was saved.
    """
    sessions = plan["sessions"]
    if tracer is not None:
        tracer.set_request("setup")
    (session, knowledge), setup_s = timed(set_up, start_path, sessions[0]["guid_seed"])
    from ifcmcp.model import open_model
    from ifcmcp.step import write_step
    if tracer is not None:
        write_step = tracer.original("step.write_step")   # checks stay out of the trace
    client = Client(session)
    if tracer is not None:
        client.on_request = tracer.set_request
    open_s, save_s = [], []
    saved = workdir / f"{plan['workload']}.ifc"

    def save(model) -> bytes:
        if tracer is not None:
            tracer.set_request(f"save:{len(save_s) + 1}")
        _, elapsed = timed(model.save, str(saved))
        save_s.append(elapsed)
        return saved.read_bytes()

    def reopen(guid_seed: int, data: bytes, totals: dict):
        """Open the saved file, timed, and check it against what was saved."""
        if tracer is not None:
            tracer.set_request(f"open:{len(open_s) + 1}")
        model, elapsed = timed(open_model, str(saved), guid_seed)
        open_s.append(elapsed)
        final_checks(client, client.session.model, data, model, totals, write_step)
        return model

    passes = 0
    loop_start = time.perf_counter()
    while True:
        for number, spec in enumerate(sessions):
            if number > 0:
                model = reopen(spec["guid_seed"], data, sessions[number - 1]["totals"])
                client.session = make_session(model, knowledge)
            client.run(spec["calls"])
            data = save(client.session.model)
        passes += 1
        if time.perf_counter() - loop_start >= seconds:
            break
        if plan["edits"]:
            model = open_model(start_path, sessions[0]["guid_seed"])
            client.session = make_session(model, knowledge)
        else:
            reopen(sessions[-1]["guid_seed"], data, sessions[-1]["totals"])
    if reopen_last:
        reopen(sessions[-1]["guid_seed"], data, sessions[-1]["totals"])

    return {
        "setup_s": setup_s,
        "latency_ms": client.latency,
        "open_s": open_s,
        "save_s": save_s,
        "attempted": client.attempted,
        "failed": client.failed,
        "failures": client.failures,
        "passes": passes,
        "entities": len(client.session.model.entities),
        "response_bytes": client.response_bytes,
        "svg_bytes": client.svg_bytes,
        "svg_sha256": sorted(set(client.svg_sha256)),
        "step_sha256": hashlib.sha256(data).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum call-phase time of a looping plan")
    parser.add_argument("--reopen", type=int, choices=(0, 1), default=1,
                        help="open the last saved file again and check it")
    parser.add_argument("--trace", help="record spans and write them to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())
    start_path = str(Path(args.plan).with_name("start.ifc"))
    if args.setup_only:
        _, setup_s = timed(set_up, start_path, plan["sessions"][0]["guid_seed"])
        print(json.dumps({"setup_s": setup_s}))
        return 0
    tracer = None
    if args.trace:
        use_source_tree()
        from trace_spans import Tracer
        tracer = Tracer()
        tracer.install()
    result = run_workload(plan, start_path, Path(args.plan).parent, args.seconds,
                          bool(args.reopen), tracer)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.report()
        tracer.write_spans(Path(args.trace))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
