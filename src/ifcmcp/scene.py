"""Read-only scene context: compact summaries an LLM client reasons over.

Output dicts are built in the exact key order the wire format requires;
the service layer serializes them without re-sorting.
"""

from __future__ import annotations

from . import measure, schema
from .errors import InvalidBody, InvalidRecord, NotADoor
from .model import (REF, RELATED, RELATING, SCALAR, IfcModel, classifications_of, owner_of,
                    psets_of, read)

DEFAULT_PAGE_LIMIT = 200


def _round(value: float) -> float:
    result = round(float(value), 9)
    return 0.0 if result == 0 else result


def _coords(point) -> list[float]:
    return [_round(v) for v in point]


def _name_of(model: IfcModel, entity_id: int) -> str:
    name = read(model, model.entities[entity_id], "Name", SCALAR, InvalidRecord, None)
    return name if type(name) is str and name else "Unnamed"  # also a number an edit stored


def spatial_in_order(model: IfcModel) -> list[int]:
    ordered: list[int] = []
    if model.project_id is not None:
        ordered.append(model.project_id)
    for class_name in ("IFCSITE", "IFCBUILDING"):
        ordered.extend(model.by_class.get(class_name, ()))
    ordered.extend(model.storeys())
    return ordered


def products_in_order(model: IfcModel) -> list[int]:
    return model.ids_of(schema.PRODUCT_CLASSES.__contains__)


def _object_summary(model: IfcModel, entity_id: int) -> dict:
    inst = model.entities[entity_id]
    camel = schema.camel_case(inst.class_name)
    has_body = read(model, inst, "Representation", REF, InvalidBody, None) is not None
    origin = model.placement_of(entity_id).origin
    return {
        "name": f"{camel}/{_name_of(model, entity_id)}",
        "type": "MESH" if has_body else "EMPTY",
        "location": _coords(origin),
        "visible": not schema.is_type_object(inst.class_name),
        "selected": False,
        "guid": model.guid_of(entity_id) or "",
        "ifc_class": camel,
    }


def get_scene_info(model: IfcModel, offset: int = 0,
                   limit: int = DEFAULT_PAGE_LIMIT) -> dict:
    """Paginated object roster: spatial chain, then products, then types."""
    if offset < 0:
        offset = 0
    if limit < 1:
        limit = 1
    ordered = spatial_in_order(model) + products_in_order(model) \
        + model.ids_of(schema.is_type_object)
    total = len(ordered)
    page = ordered[offset:offset + limit]
    effective_limit = min(limit, total)
    return {
        "count": len(page),
        "total": total,
        "offset": offset,
        "limit": effective_limit,
        "objects": [_object_summary(model, entity_id) for entity_id in page],
    }


def _relationships(model: IfcModel, entity_id: int) -> dict:
    rels: dict[str, object] = {}
    storey_id = model.storey_of(entity_id)
    if storey_id is not None:
        rels["contained_in"] = {
            "guid": model.guid_of(storey_id),
            "name": _name_of(model, storey_id),
        }
    # where several records match, the highest rel id wins
    for wall_id in model.linked(entity_id, "IFCRELVOIDSELEMENT", RELATED):
        rels["voids_wall"] = model.guid_of(wall_id)
    openings = [model.guid_of(opening_id) for opening_id
                in model.linked(entity_id, "IFCRELVOIDSELEMENT", RELATING)]
    if openings:
        rels["openings"] = openings
    for opening_id in model.linked(entity_id, "IFCRELFILLSELEMENT", RELATED):
        rels["fills_opening"] = model.guid_of(opening_id)
        for wall_id in model.linked(opening_id, "IFCRELVOIDSELEMENT", RELATED):
            rels["host_wall"] = model.guid_of(wall_id)
    for filler_id in model.linked(entity_id, "IFCRELFILLSELEMENT", RELATING):
        rels["filled_by"] = model.guid_of(filler_id)
    for type_id in model.linked(entity_id, "IFCRELDEFINESBYTYPE", RELATED):
        rels["type"] = {
            "guid": model.guid_of(type_id),
            "name": _name_of(model, type_id),
        }
    return rels


def get_object_info(model: IfcModel, guid: str) -> dict:
    inst = model.require_guid(guid)
    placement = model.placement_of(inst.id)
    info: dict[str, object] = {
        "guid": guid,
        "ifc_class": schema.camel_case(inst.class_name),
        "name": _name_of(model, inst.id),
        "description": read(model, inst, "Description", SCALAR, InvalidRecord, None),
        "placement": {
            "origin": _coords(placement.origin),
            "z_axis": _coords(placement.z_axis),
            "x_axis": _coords(placement.x_axis),
        },
    }
    box = measure.world_bbox(model, inst.id, placement)
    if box is not None:
        lo, hi = box
        info["bounding_box"] = {
            "min": _coords(lo),
            "max": _coords(hi),
            "size": _coords((hi.x - lo.x, hi.y - lo.y, hi.z - lo.z)),
        }
    else:
        info["bounding_box"] = None
    info["property_sets"] = psets_of(model, inst.id)
    info["classifications"] = classifications_of(model, inst.id)
    info["relationships"] = _relationships(model, inst.id)
    info["owner"] = owner_of(model, inst.id)
    if inst.class_name == "IFCBUILDINGSTOREY":
        info["elevation"] = _round(model.storey_elevation(inst.id))
    return info


def get_ifc_scene_overview(model: IfcModel) -> dict:
    products = products_in_order(model)
    counts: dict[str, int] = {}
    for entity_id in products + model.ids_of(schema.is_type_object):
        camel = schema.camel_case(model.entities[entity_id].class_name)
        counts[camel] = counts.get(camel, 0) + 1

    # one read of each product: a slab's profile area and every world box
    floor_area = 0.0
    boxes = []
    for entity_id in products:
        body = measure.body_of(model, entity_id)
        if body is None:
            continue
        if isinstance(body, measure.Extrusion) and body.area \
                and model.entities[entity_id].class_name == "IFCSLAB":
            floor_area += body.area
        boxes.append(measure.bounds(body, measure.world_frame(body, model.placement_of(entity_id))))
    lows, highs = zip(*boxes) if boxes else ((), ())

    def handle(entity_id: int | None) -> dict | None:
        if entity_id is None:
            return None
        return {"guid": model.guid_of(entity_id), "name": _name_of(model, entity_id)}

    return {
        "schema": model.header.file_schema[0] if model.header.file_schema else "IFC4",
        "class_counts": dict(sorted(counts.items())),
        "product_count": len(products),
        "spatial": {
            "project": handle(model.project_id),
            "site": handle(model.site_id),
            "building": handle(model.building_id),
        },
        "storeys": [
            {
                "guid": model.guid_of(storey_id),
                "name": _name_of(model, storey_id),
                "elevation": _round(model.storey_elevation(storey_id)),
            }
            for storey_id in model.storeys()
        ],
        "guid_count": len(model.by_guid),
        "total_floor_area": _round(floor_area),
        "bounding_box": None if not boxes else {
            "min": _coords(map(min, zip(*lows))), "max": _coords(map(max, zip(*highs))),
        },
    }


def get_door_properties(model: IfcModel, guid: str) -> dict:
    inst = model.require_guid(guid)
    if inst.class_name != "IFCDOOR":
        raise NotADoor(f"{guid} is {schema.camel_case(inst.class_name)}, not IfcDoor")
    body = measure.body_of(model, inst.id)
    width = height = None
    if isinstance(body, measure.Extrusion):
        x0, _y0, x1, _y1 = body.bbox
        width = _round(x1 - x0)
        height = _round(body.depth)
    # the wall voided by an opening the door fills; the last one wins, as in
    # _relationships. The sill is the door's height in the wall's axis frame,
    # the frame create_door places its opening in
    hosts = [wall_id for opening_id in model.linked(inst.id, "IFCRELFILLSELEMENT", RELATED)
             for wall_id in model.linked(opening_id, "IFCRELVOIDSELEMENT", RELATED)]
    sill = 0.0
    if hosts:
        axis = measure.wall_axis(model, hosts[-1])
        sill = None if axis is None else \
            _round(axis.placement.to_local(model.placement_of(inst.id).origin).z)
    storey_id = model.storey_of(inst.id)
    return {
        "guid": guid,
        "name": _name_of(model, inst.id),
        "width": width,
        "height": height,
        "sill_height": sill,
        "host_wall": model.guid_of(hosts[-1]) if hosts else None,
        "storey": _name_of(model, storey_id) if storey_id is not None else None,
        "swing": None,
    }
