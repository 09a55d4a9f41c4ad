from __future__ import annotations

import json
from pathlib import Path

import pytest

from ifcmcp.cli import main, run_trace
from ifcmcp.errors import StepFailed
from ifcmcp.guid import is_guid
from ifcmcp.model import new_model, open_model
from ifcmcp.service import Session

from conftest import shared_guid_step

TRACES = Path(__file__).resolve().parent.parent / "traces"


def test_new_open_save_round_trip(tmp_path, capsys):
    out = tmp_path / "fresh.ifc"
    assert main(["new", str(out), "--seed", "5"]) == 0
    assert out.exists()
    capsys.readouterr()
    assert main(["open", str(out)]) == 0
    overview = json.loads(capsys.readouterr().out)
    assert overview["class_counts"] == {}
    assert overview["storeys"][0]["name"] == "My Storey"
    resaved = tmp_path / "resaved.ifc"
    assert main(["save", str(out), str(resaved)]) == 0
    assert resaved.read_bytes() == out.read_bytes()


def test_open_missing_file_exits_2(capsys):
    assert main(["open", "/nonexistent/missing.ifc"]) == 2
    assert "IoError" in capsys.readouterr().err


def test_save_of_a_real_that_overflows_exits_1(tmp_path, capsys):
    data = new_model(guid_seed=5).to_bytes()
    source = tmp_path / "overflow.ifc"
    source.write_bytes(data.replace(b"#1=IFCCARTESIANPOINT((0.,", b"#1=IFCCARTESIANPOINT((1.E400,", 1))
    out = tmp_path / "out.ifc"
    assert main(["save", str(source), str(out)]) == 1
    assert capsys.readouterr().err == \
        "ifcmcp: StepSyntaxError: line 8, col 23: real 1.E400 does not fit a double\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["open"], ["serve", "--model"]])
def test_shared_global_id_fails_open_and_serve(tmp_path, capsys, command):
    data, guid, (first, second) = shared_guid_step()
    path = tmp_path / "shared.ifc"
    path.write_bytes(data)
    assert main(command + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"ifcmcp: DuplicateGuid: duplicate GlobalId {guid!r} "
                            f"on #{first} and #{second}\n")


def test_replay_with_the_seed_of_its_model_issues_no_global_id_twice(tmp_path, capsys):
    start, out = tmp_path / "start.ifc", tmp_path / "out.ifc"
    assert main(["new", str(start), "--seed", "5"]) == 0
    assert main(["replay", str(TRACES / "l_building.json"), "--model", str(start),
                 "--seed", "5", "--save", str(out)]) == 0
    capsys.readouterr()
    assert main(["open", str(out)]) == 0

    def guids(path):
        return [inst.attributes[0] for inst in open_model(str(path)).entities.values()
                if inst.attributes and is_guid(inst.attributes[0])]

    saved = guids(out)
    assert set(guids(start)) < set(saved)
    assert len(set(saved)) == len(saved)


def test_replay_l_building_trace(tmp_path, capsys):
    saved = tmp_path / "l.ifc"
    code = main(["replay", str(TRACES / "l_building.json"),
                 "--seed", "11", "--save", str(saved)])
    output = capsys.readouterr().out
    assert code == 0, output
    assert output.count("PASS") == 8
    assert saved.exists()
    model = open_model(saved)
    assert len(model.by_class["IFCWALL"]) == 6
    assert len(model.by_class["IFCSLAB"]) == 2
    assert len(model.by_class["IFCDOOR"]) == 1
    assert len(model.by_class["IFCROOF"]) == 1


def test_replay_semantic_edits_trace(capsys):
    code = main(["replay", str(TRACES / "semantic_edits.json"), "--seed", "12"])
    output = capsys.readouterr().out
    assert code == 0, output
    assert "FAIL" not in output


def test_replay_deterministic_with_seed(tmp_path):
    a = tmp_path / "a.ifc"
    b = tmp_path / "b.ifc"
    assert main(["replay", str(TRACES / "l_building.json"),
                 "--seed", "99", "--save", str(a)]) == 0
    assert main(["replay", str(TRACES / "l_building.json"),
                 "--seed", "99", "--save", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_replay_bad_reference_fails(tmp_path, capsys):
    trace = tmp_path / "bad.json"
    trace.write_text(json.dumps({
        "steps": [
            {"tool": "get_ifc_scene_overview", "args": {}},
            {"tool": "get_object_info", "args": {"guid": "$1.no_such_field"}},
        ],
    }), encoding="utf-8")
    assert main(["replay", str(trace)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_replay_assertion_failure(tmp_path, capsys):
    trace = tmp_path / "assert.json"
    trace.write_text(json.dumps({
        "steps": [
            {"tool": "create_wall",
             "args": {"start": [0, 0], "end": [10, 0], "height": 3,
                      "thickness": 0.2}},
            {"tool": "execute_ifc_query", "args": {"query": "walls | count"},
             "expect": {"result": 5}},
        ],
    }), encoding="utf-8")
    assert main(["replay", str(trace)]) == 1
    out = capsys.readouterr().out
    assert "step 2: FAIL" in out


def test_run_trace_substitution_chain():
    session = Session(new_model(guid_seed=31))
    reports = run_trace(session, {
        "steps": [
            {"tool": "create_wall",
             "args": {"start": [0, 0], "end": [10, 0], "height": 3,
                      "thickness": 0.2}},
            {"tool": "create_door",
             "args": {"wall_guid": "$1.guid", "position_along_axis": 5.0}},
            {"tool": "get_door_properties", "args": {"guid": "$2.door"},
             "expect": {"host_wall": "$1.guid"}},
        ],
    })
    assert len(reports) == 3
    assert reports[2]["payload"]["width"] == 0.9


def test_run_trace_future_reference_rejected():
    session = Session(new_model(guid_seed=32))
    with pytest.raises(StepFailed):
        run_trace(session, {
            "steps": [
                {"tool": "get_object_info", "args": {"guid": "$2.guid"}},
                {"tool": "get_ifc_scene_overview", "args": {}},
            ],
        })


def test_run_trace_schema_validation_enforced():
    session = Session(new_model(guid_seed=33))
    with pytest.raises(StepFailed) as excinfo:
        run_trace(session, {
            "steps": [
                {"tool": "create_wall",
                 "args": {"start": [0, 0], "end": [10, 0], "height": -3,
                          "thickness": 0.2}},
            ],
        })
    assert "invalid params" in str(excinfo.value)


def test_snapshot_command(tmp_path, capsys):
    model_path = tmp_path / "walls.ifc"
    trace = tmp_path / "build.json"
    trace.write_text(json.dumps({
        "steps": [
            {"tool": "create_wall_chain",
             "args": {"points": [[0, 0], [10, 0], [10, 10], [0, 10]],
                      "height": 3.0, "thickness": 0.25, "close": True}},
        ],
    }), encoding="utf-8")
    assert main(["replay", str(trace), "--seed", "7",
                 "--save", str(model_path)]) == 0
    plan = tmp_path / "plan.svg"
    elev = tmp_path / "south.svg"
    assert main(["snapshot", str(model_path), "--plan", str(plan),
                 "--elevation", "south", "--out", str(elev)]) == 0
    svg = plan.read_text(encoding="utf-8")
    assert svg.count('fill="#4a4a4a"') == 4
    assert elev.read_text(encoding="utf-8").startswith("<svg")


def test_snapshot_missing_model(tmp_path):
    assert main(["snapshot", str(tmp_path / "none.ifc"),
                 "--plan", str(tmp_path / "x.svg")]) == 2


def test_trace_dispatch_equals_direct_invocation():
    from ifcmcp import builders, scene

    direct = new_model(guid_seed=64)
    direct_guid = builders.create_wall(direct, (0, 0), (10, 0), 3.5, 0.25)

    session = Session(new_model(guid_seed=64))
    reports = run_trace(session, {
        "steps": [
            {"tool": "create_wall",
             "args": {"start": [0, 0], "end": [10, 0], "height": 3.5,
                      "thickness": 0.25}},
        ],
    })
    assert reports[0]["payload"]["guid"] == direct_guid
    assert scene.get_scene_info(session.model) == scene.get_scene_info(direct)
    assert session.model.to_bytes() == direct.to_bytes()


def test_expect_numeric_tolerance():
    session = Session(new_model(guid_seed=65))
    with pytest.raises(StepFailed):
        run_trace(session, {
            "steps": [
                {"tool": "create_wall",
                 "args": {"start": [0, 0], "end": [3, 4], "height": 3.0,
                          "thickness": 0.2}},
                {"tool": "execute_ifc_query",
                 "args": {"query": "walls | sum(length)"},
                 "expect": {"result": 5.001}},
            ],
        })
    ok = Session(new_model(guid_seed=66))
    reports = run_trace(ok, {
        "steps": [
            {"tool": "create_wall",
             "args": {"start": [0, 0], "end": [3, 4], "height": 3.0,
                      "thickness": 0.2}},
            {"tool": "execute_ifc_query",
             "args": {"query": "walls | sum(length)"},
             "expect": {"result": 5.0}},
        ],
    })
    assert len(reports) == 2


def test_serve_stdio_subprocess():
    import subprocess
    import sys

    requests = "\n".join([
        json.dumps({"jsonrpc": "2.0", "id": 1, "method": "initialize"}),
        json.dumps({"jsonrpc": "2.0", "method": "notifications/initialized"}),
        json.dumps({"jsonrpc": "2.0", "id": 2, "method": "tools/call",
                    "params": {"name": "create_wall",
                               "arguments": {"start": [0, 0], "end": [6, 0],
                                             "height": 3.0, "thickness": 0.2}}}),
        json.dumps({"jsonrpc": "2.0", "id": 3, "method": "tools/call",
                    "params": {"name": "execute_ifc_query",
                               "arguments": {"query": "walls | sum(length)"}}}),
    ]) + "\n"
    proc = subprocess.run(
        [sys.executable, "-m", "ifcmcp", "serve", "--seed", "9"],
        input=requests, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    responses = [json.loads(line) for line in proc.stdout.strip().split("\n")]
    assert [r["id"] for r in responses] == [1, 2, 3]
    query = json.loads(responses[2]["result"]["content"][0]["text"])
    assert query["result"] == 6.0


def test_groups_parsing_shorthand(capsys, tmp_path):
    # served via the Session factory; verified through the parser helper
    from ifcmcp.cli import _parse_groups

    assert _parse_groups("q,c") == ("query", "create")
    assert _parse_groups("query,knowledge") == ("query", "knowledge")
    assert _parse_groups(None) == ("query", "create", "edit", "knowledge",
                                   "snapshot")
    with pytest.raises(SystemExit):
        _parse_groups("bogus")
