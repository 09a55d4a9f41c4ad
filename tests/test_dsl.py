from __future__ import annotations

import random

import pytest

from ifcmcp import builders, dsl
from ifcmcp.dsl import eval_query, parse_query
from ifcmcp.errors import (
    UnknownAttribute,
    BudgetExceeded,
    InvalidParams,
    ParseError,
    TypeMismatch,
    UnknownField,
)
from ifcmcp.model import new_model


def evaluate(model, text):
    return eval_query(model, parse_query(text))


def test_parse_walls_count():
    program = parse_query("walls | count")
    assert program.selector == "walls"
    assert program.terminal.kind == "count"
    assert not program.is_mutation


def test_parse_pipeline():
    program = parse_query("walls | filter(height > 3) | sum(length)")
    assert len(program.filters) == 1
    assert program.terminal.kind == "sum"


def test_parse_rejects_foreign_syntax():
    with pytest.raises(ParseError):
        parse_query("walls | import os")
    with pytest.raises(ParseError):
        parse_query("walls")  # no terminal stage
    with pytest.raises(ParseError):
        parse_query("walls | count | count")  # two terminals
    with pytest.raises(ParseError):
        parse_query("walls | filter(height >)")
    with pytest.raises(ParseError):
        parse_query("")


def test_parse_size_limit():
    with pytest.raises(ParseError):
        parse_query("walls | count" + " " * 9000)


def test_parse_nesting_limit():
    limit = dsl.MAX_EXPR_DEPTH

    def filtered(expr):
        return f"walls | filter({expr}) | count"

    parse_query(filtered("!" * limit + "true"))
    parse_query(filtered("(" * (limit - 1) + "height > 1" + ")" * (limit - 1)))
    parse_query(filtered(" + ".join(["1"] * limit) + " > 0"))
    for expr in ("!" * (limit + 1) + "true",
                 "(" * limit + "height > 1" + ")" * limit,
                 " + ".join(["1"] * (limit + 1)) + " > 0"):
        with pytest.raises(ParseError):
            parse_query(filtered(expr))


def test_count_and_sum_on_square_scene(four_wall_model):
    result, _log, _ = evaluate(four_wall_model, "walls | count")
    assert result == 4
    result, _log, _ = evaluate(four_wall_model, "walls | sum(length)")
    assert result == pytest.approx(40.0)


def test_filter_and_aggregations(four_wall_model):
    model = four_wall_model
    builders.create_wall(model, (20, 0), (25, 0), 4.0, 0.25)
    assert evaluate(model, "walls | filter(height > 3.5) | count")[0] == 1
    assert evaluate(model, "walls | filter(height == 3) | count")[0] == 4
    assert evaluate(model, "walls | max(height)")[0] == pytest.approx(4.0)
    assert evaluate(model, "walls | min(length)")[0] == pytest.approx(5.0)
    assert evaluate(model, "walls | avg(height)")[0] == pytest.approx(3.2)
    assert evaluate(model, "walls | list(length)")[0] == \
        pytest.approx([10.0, 10.0, 10.0, 10.0, 5.0])


def test_select_rows(four_wall_model):
    rows, _log, _ = evaluate(four_wall_model, "walls | select(name, length)")
    assert rows == [["Wall_001", 10.0], ["Wall_002", 10.0],
                    ["Wall_003", 10.0], ["Wall_004", 10.0]]
    single, _log, _ = evaluate(four_wall_model, "walls | select(name)")
    assert single == ["Wall_001", "Wall_002", "Wall_003", "Wall_004"]


def test_arithmetic_and_boolean_operators(four_wall_model):
    assert evaluate(four_wall_model, "walls | sum(length * 2 + 1)")[0] == \
        pytest.approx(84.0)
    assert evaluate(
        four_wall_model,
        "walls | filter(length > 5 && height < 10) | count")[0] == 4
    assert evaluate(
        four_wall_model,
        "walls | filter(name == \"Wall_001\" || name == \"Wall_002\") | count",
    )[0] == 2
    assert evaluate(four_wall_model, "walls | filter(!(length < 5)) | count")[0] == 4


def test_rename_with_height_template(four_wall_model):
    result, _log, changed = evaluate(four_wall_model,
                                      'walls | rename("Wall-{height}m")')
    assert len(changed) == 4
    names, _log, _ = evaluate(four_wall_model, "walls | list(name)")
    assert names == ["Wall-3.0m"] * 4


def test_rename_door_with_storey(l_building):
    model, _handles = l_building
    evaluate(model, 'doors | rename("{name} - {storey}")')
    names, _log, _ = evaluate(model, "doors | list(name)")
    assert names == ["Door_001 - My Storey"]


def test_template_rounding_half_up():
    assert dsl.format_decimal(3.0) == "3.0"
    assert dsl.format_decimal(2.25) == "2.3"
    assert dsl.format_decimal(2.24) == "2.2"
    assert dsl.format_decimal(0.05) == "0.1"


def test_mutation_zero_selection_not_dirty(four_wall_model):
    model = four_wall_model
    result, _log, changed = evaluate(model, 'doors | rename("X-{name}")')
    assert changed == []
    assert result == {"changed": [], "count": 0}


def test_set_attribute_and_pset(four_wall_model):
    model = four_wall_model
    evaluate(model, 'walls | set(Description, "exterior")')
    descs, _log, _ = evaluate(model, "walls | list(.Description)")
    assert descs == ["exterior"] * 4
    evaluate(model, 'windows | count')
    evaluate(model, 'walls | set_pset("Cost", "UnitCost", 500)')
    total, _log, _ = evaluate(model, 'walls | sum(pset("Cost").UnitCost)')
    assert total == pytest.approx(2000.0)
    total2, _log, _ = evaluate(model, 'walls | sum(pset("Cost")["UnitCost"])')
    assert total2 == pytest.approx(2000.0)


def test_window_costing_semantics(l_building):
    model, handles = l_building
    wall = handles["walls"][0]
    builders.create_window(model, wall_guid=wall, position_along_axis=5.0)
    builders.create_window(model, wall_guid=wall, position_along_axis=8.0)
    count, _log, _ = evaluate(model, "windows | count")
    total, _log, _ = evaluate(model, "windows | sum(500)")
    assert total == pytest.approx(500.0 * count)


def test_read_queries_leave_bytes_identical(l_building):
    model, _ = l_building
    before = model.to_bytes()
    for text in ("walls | count", "slabs | sum(area)", "all | list(name)",
                 "walls | filter(height > 1) | avg(length)"):
        evaluate(model, text)
    assert model.to_bytes() == before


def test_spatial_selector_gating(fresh_model):
    assert evaluate(fresh_model, "buildings | count")[0] == 1
    evaluate(fresh_model, 'buildings | set(Description, "tower")')
    # LongName exists on buildings but only Name/Description are writable
    # on spatial containers through the DSL
    with pytest.raises(InvalidParams):
        evaluate(fresh_model, 'buildings | set(LongName, "T")')
    with pytest.raises(UnknownAttribute):
        evaluate(fresh_model, 'buildings | set(Tag, "T")')


def test_type_errors(four_wall_model):
    with pytest.raises(TypeMismatch):
        evaluate(four_wall_model, "walls | sum(name)")
    with pytest.raises(TypeMismatch):
        evaluate(four_wall_model, "walls | filter(length + name > 1) | count")
    with pytest.raises(UnknownField):
        evaluate(four_wall_model, "spaceships | count")
    with pytest.raises(ParseError):
        evaluate(four_wall_model, "walls | sum(unknown_field)")


def test_budget_exceeded(four_wall_model, monkeypatch):
    monkeypatch.setattr(dsl, "STEP_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        evaluate(four_wall_model, "walls | sum(length + length + length)")


def test_missing_pset_filters_false(four_wall_model):
    kept, _log, _ = evaluate(
        four_wall_model, 'walls | filter(pset("Nope").x == 1) | count')
    assert kept == 0


def _oracle_scan(model, class_names):
    """Independent brute-force oracle over the raw entity map."""
    ids = [i for i, e in model.entities.items() if e.class_name in class_names]
    lengths = []
    areas = []
    for entity_id in sorted(ids):
        inst = model.entities[entity_id]
        pds = inst.attributes[6]
        rep = model.entities[pds.id].attributes[2][0]
        solid = model.entities[model.entities[rep.id].attributes[3][0].id]
        profile = model.entities[solid.attributes[0].id]
        depth = solid.attributes[3]
        if profile.class_name == "IFCRECTANGLEPROFILEDEF":
            xdim, ydim = profile.attributes[3], profile.attributes[4]
            area = xdim * ydim
            length = xdim
        else:
            curve = model.entities[profile.attributes[2].id]
            pts = [model.entities[r.id].attributes[0]
                   for r in curve.attributes[0]][:-1]
            area = abs(sum(
                pts[i][0] * pts[(i + 1) % len(pts)][1]
                - pts[(i + 1) % len(pts)][0] * pts[i][1]
                for i in range(len(pts)))) / 2
            length = max(p[0] for p in pts) - min(p[0] for p in pts)
        if inst.class_name == "IFCWALL":
            lengths.append(length)
            areas.append(length * depth)
        else:
            areas.append(area)
    return len(ids), sum(lengths), sum(areas)


def test_oracle_equivalence_random_models():
    rng = random.Random(1312)
    for trial in range(20):
        model = new_model(guid_seed=trial)
        n_walls = rng.randint(0, 6)
        n_slabs = rng.randint(0, 3)
        for _ in range(n_walls):
            x0, y0 = rng.uniform(-20, 20), rng.uniform(-20, 20)
            dx, dy = rng.uniform(1, 15), rng.uniform(-3, 3)
            builders.create_wall(model, (x0, y0), (x0 + dx, y0 + dy),
                                 rng.uniform(2, 5), rng.uniform(0.1, 0.4))
        for _ in range(n_slabs):
            x0, y0 = rng.uniform(-20, 20), rng.uniform(-20, 20)
            w, h = rng.uniform(2, 12), rng.uniform(2, 12)
            builders.create_slab(model, [(x0, y0), (x0 + w, y0),
                                         (x0 + w, y0 + h), (x0, y0 + h)],
                                 rng.uniform(0.1, 0.5))
        wall_count, wall_len, _ = _oracle_scan(model, {"IFCWALL"})
        slab_count, _, slab_area = _oracle_scan(model, {"IFCSLAB"})
        assert evaluate(model, "walls | count")[0] == wall_count
        assert evaluate(model, "slabs | count")[0] == slab_count
        if wall_count:
            assert evaluate(model, "walls | sum(length)")[0] == \
                pytest.approx(wall_len, abs=1e-9)
        if slab_count:
            assert evaluate(model, "slabs | sum(area)")[0] == \
                pytest.approx(slab_area, abs=1e-9)


def test_class_name_selectors(four_wall_model):
    assert evaluate(four_wall_model, "IfcWall | count")[0] == 4
    assert evaluate(four_wall_model, "IFCWALL | count")[0] == 4
