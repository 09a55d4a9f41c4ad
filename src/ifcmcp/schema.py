"""Attribute layouts for the IFC4 entity classes this toolkit emits.

This is not an EXPRESS schema: it is the minimal ordered-attribute table
needed to address attributes by name, detect rooted classes and render
class names in their conventional CamelCase form. ``POSITIONS``, built from
it at import, maps each class's attribute names to their positions: it is
where ``model.read`` and ``attribute_index`` look an attribute up, so no
reader states a position itself.
"""

from __future__ import annotations

_ROOT = ["GlobalId", "OwnerHistory", "Name", "Description"]
_OBJECT = _ROOT + ["ObjectType"]
_PRODUCT = _OBJECT + ["ObjectPlacement", "Representation"]
_ELEMENT = _PRODUCT + ["Tag"]
_SPATIAL = _PRODUCT + ["LongName", "CompositionType"]

ATTRIBUTES: dict[str, list[str]] = {
    # spatial structure
    "IFCPROJECT": _OBJECT + ["LongName", "Phase", "RepresentationContexts", "UnitsInContext"],
    "IFCSITE": _SPATIAL + ["RefLatitude", "RefLongitude", "RefElevation",
                           "LandTitleNumber", "SiteAddress"],
    "IFCBUILDING": _SPATIAL + ["ElevationOfRefHeight", "ElevationOfTerrain",
                               "BuildingAddress"],
    "IFCBUILDINGSTOREY": _SPATIAL + ["Elevation"],
    # products
    "IFCWALL": _ELEMENT + ["PredefinedType"],
    "IFCSLAB": _ELEMENT + ["PredefinedType"],
    "IFCROOF": _ELEMENT + ["PredefinedType"],
    "IFCSTAIR": _ELEMENT + ["PredefinedType"],
    "IFCCOLUMN": _ELEMENT + ["PredefinedType"],
    "IFCBEAM": _ELEMENT + ["PredefinedType"],
    "IFCMEMBER": _ELEMENT + ["PredefinedType"],
    "IFCBUILDINGELEMENTPROXY": _ELEMENT + ["PredefinedType"],
    "IFCFURNISHINGELEMENT": _ELEMENT,
    "IFCOPENINGELEMENT": _ELEMENT + ["PredefinedType"],
    "IFCDOOR": _ELEMENT + ["OverallHeight", "OverallWidth", "PredefinedType",
                           "OperationType", "UserDefinedOperationType"],
    "IFCWINDOW": _ELEMENT + ["OverallHeight", "OverallWidth", "PredefinedType",
                             "PartitioningType", "UserDefinedPartitioningType"],
    # products of files from other tools: their IfcElement attributes only
    **dict.fromkeys(("IFCSTAIRFLIGHT", "IFCCOVERING", "IFCCURTAINWALL", "IFCFOOTING",
                     "IFCPILE", "IFCPLATE", "IFCRAILING", "IFCRAMP",
                     "IFCFLOWTERMINAL", "IFCDISTRIBUTIONELEMENT"), _ELEMENT),
    "IFCWALLSTANDARDCASE": _ELEMENT + ["PredefinedType"],
    # type objects
    "IFCWALLTYPE": _ROOT + ["ApplicableOccurrence", "HasPropertySets",
                            "RepresentationMaps", "Tag", "ElementType", "PredefinedType"],
    # relationships
    "IFCRELAGGREGATES": _ROOT + ["RelatingObject", "RelatedObjects"],
    "IFCRELCONTAINEDINSPATIALSTRUCTURE": _ROOT + ["RelatedElements", "RelatingStructure"],
    "IFCRELDEFINESBYPROPERTIES": _ROOT + ["RelatedObjects", "RelatingPropertyDefinition"],
    "IFCRELDEFINESBYTYPE": _ROOT + ["RelatedObjects", "RelatingType"],
    "IFCRELASSOCIATESCLASSIFICATION": _ROOT + ["RelatedObjects", "RelatingClassification"],
    "IFCRELVOIDSELEMENT": _ROOT + ["RelatingBuildingElement", "RelatedOpeningElement"],
    "IFCRELFILLSELEMENT": _ROOT + ["RelatingOpeningElement", "RelatedBuildingElement"],
    # property / classification resources
    "IFCPROPERTYSET": _ROOT + ["HasProperties"],
    "IFCPROPERTYSINGLEVALUE": ["Name", "Description", "NominalValue", "Unit"],
    "IFCCLASSIFICATION": ["Source", "Edition", "EditionDate", "Name", "Description",
                          "Location", "ReferenceTokens"],
    "IFCCLASSIFICATIONREFERENCE": ["Location", "Identification", "Name",
                                   "ReferencedSource", "Description", "Sort"],
    # ownership
    "IFCOWNERHISTORY": ["OwningUser", "OwningApplication", "State", "ChangeAction",
                        "LastModifiedDate", "LastModifyingUser",
                        "LastModifyingApplication", "CreationDate"],
    "IFCPERSON": ["Identification", "FamilyName", "GivenName", "MiddleNames",
                  "PrefixTitles", "SuffixTitles", "Roles", "Addresses"],
    "IFCORGANIZATION": ["Identification", "Name", "Description", "Roles", "Addresses"],
    "IFCPERSONANDORGANIZATION": ["ThePerson", "TheOrganization", "Roles"],
    "IFCAPPLICATION": ["ApplicationDeveloper", "Version", "ApplicationFullName",
                       "ApplicationIdentifier"],
    # geometry resources
    "IFCCARTESIANPOINT": ["Coordinates"],
    "IFCDIRECTION": ["DirectionRatios"],
    "IFCAXIS2PLACEMENT2D": ["Location", "RefDirection"],
    "IFCAXIS2PLACEMENT3D": ["Location", "Axis", "RefDirection"],
    "IFCLOCALPLACEMENT": ["PlacementRelTo", "RelativePlacement"],
    "IFCPOLYLINE": ["Points"],
    "IFCARBITRARYCLOSEDPROFILEDEF": ["ProfileType", "ProfileName", "OuterCurve"],
    "IFCRECTANGLEPROFILEDEF": ["ProfileType", "ProfileName", "Position", "XDim", "YDim"],
    "IFCEXTRUDEDAREASOLID": ["SweptArea", "Position", "ExtrudedDirection", "Depth"],
    "IFCSHAPEREPRESENTATION": ["ContextOfItems", "RepresentationIdentifier",
                               "RepresentationType", "Items"],
    "IFCPRODUCTDEFINITIONSHAPE": ["Name", "Description", "Representations"],
    "IFCFACETEDBREP": ["Outer"],
    "IFCCLOSEDSHELL": ["CfsFaces"],
    **dict.fromkeys(("IFCFACE", "IFCFACESURFACE"), ["Bounds"]),  # IfcFace's attributes only
    **dict.fromkeys(("IFCFACEBOUND", "IFCFACEOUTERBOUND"), ["Bound", "Orientation"]),
    "IFCPOLYLOOP": ["Polygon"],
    "IFCGEOMETRICREPRESENTATIONCONTEXT": ["ContextIdentifier", "ContextType",
                                          "CoordinateSpaceDimension", "Precision",
                                          "WorldCoordinateSystem", "TrueNorth"],
    "IFCUNITASSIGNMENT": ["Units"],
    "IFCSIUNIT": ["Dimensions", "UnitType", "Prefix", "Name"],
}

# class -> attribute name -> its position, the one place readers find it
POSITIONS: dict[str, dict[str, int]] = {
    class_name: {name: index for index, name in enumerate(names)}
    for class_name, names in ATTRIBUTES.items()}

CAMEL_CASE: dict[str, str] = {
    "IFCPROJECT": "IfcProject",
    "IFCSITE": "IfcSite",
    "IFCBUILDING": "IfcBuilding",
    "IFCBUILDINGSTOREY": "IfcBuildingStorey",
    "IFCWALL": "IfcWall",
    "IFCWALLSTANDARDCASE": "IfcWallStandardCase",
    "IFCSLAB": "IfcSlab",
    "IFCROOF": "IfcRoof",
    "IFCSTAIR": "IfcStair",
    "IFCSTAIRFLIGHT": "IfcStairFlight",
    "IFCCOLUMN": "IfcColumn",
    "IFCBEAM": "IfcBeam",
    "IFCMEMBER": "IfcMember",
    "IFCDOOR": "IfcDoor",
    "IFCWINDOW": "IfcWindow",
    "IFCOPENINGELEMENT": "IfcOpeningElement",
    "IFCBUILDINGELEMENTPROXY": "IfcBuildingElementProxy",
    "IFCFURNISHINGELEMENT": "IfcFurnishingElement",
    "IFCWALLTYPE": "IfcWallType",
    "IFCPROPERTYSET": "IfcPropertySet",
    "IFCCLASSIFICATION": "IfcClassification",
    "IFCCLASSIFICATIONREFERENCE": "IfcClassificationReference",
    "IFCOWNERHISTORY": "IfcOwnerHistory",
    "IFCPERSON": "IfcPerson",
    "IFCORGANIZATION": "IfcOrganization",
    "IFCRELAGGREGATES": "IfcRelAggregates",
    "IFCRELCONTAINEDINSPATIALSTRUCTURE": "IfcRelContainedInSpatialStructure",
    "IFCRELDEFINESBYPROPERTIES": "IfcRelDefinesByProperties",
    "IFCRELDEFINESBYTYPE": "IfcRelDefinesByType",
    "IFCRELASSOCIATESCLASSIFICATION": "IfcRelAssociatesClassification",
    "IFCRELVOIDSELEMENT": "IfcRelVoidsElement",
    "IFCRELFILLSELEMENT": "IfcRelFillsElement",
    "IFCCOVERING": "IfcCovering",
    "IFCCURTAINWALL": "IfcCurtainWall",
    "IFCFOOTING": "IfcFooting",
    "IFCPILE": "IfcPile",
    "IFCPLATE": "IfcPlate",
    "IFCRAILING": "IfcRailing",
    "IFCRAMP": "IfcRamp",
    "IFCSPACE": "IfcSpace",
    "IFCFLOWTERMINAL": "IfcFlowTerminal",
    "IFCDISTRIBUTIONELEMENT": "IfcDistributionElement",
}

# products the builders create and the scene layer lists; openings are
# feature elements tracked through their voids relationship, not here
PRODUCT_CLASSES = frozenset({
    "IFCWALL", "IFCWALLSTANDARDCASE", "IFCSLAB", "IFCROOF", "IFCSTAIR",
    "IFCSTAIRFLIGHT", "IFCCOLUMN", "IFCBEAM", "IFCMEMBER", "IFCDOOR", "IFCWINDOW",
    "IFCBUILDINGELEMENTPROXY", "IFCFURNISHINGELEMENT",
    "IFCCOVERING", "IFCCURTAINWALL", "IFCFOOTING", "IFCPILE", "IFCPLATE",
    "IFCRAILING", "IFCRAMP", "IFCFLOWTERMINAL", "IFCDISTRIBUTIONELEMENT",
})

# wall classes: IfcWallStandardCase is the usual wall of IFC2x3 exports
WALL_CLASSES = ("IFCWALL", "IFCWALLSTANDARDCASE")

SPATIAL_CLASSES = frozenset({"IFCPROJECT", "IFCSITE", "IFCBUILDING", "IFCBUILDINGSTOREY"})

# relationship classes the kit reads and writes: class -> (position of its
# Relating* attribute, position of its Related* attribute)
REL_SIDES: dict[str, tuple[int, int]] = {
    class_name: tuple(next(index for name, index in positions.items() if name.startswith(side))
                      for side in ("Relating", "Related"))
    for class_name, positions in POSITIONS.items() if class_name.startswith("IFCREL")}

# relationship classes whose related side is one reference, not a list
SINGLE_RELATED = frozenset({"IFCRELVOIDSELEMENT", "IFCRELFILLSELEMENT"})


def is_rooted(class_name: str) -> bool | None:
    """True/False for known classes, None when the table has no entry.

    Callers indexing parsed files fall back to sniffing attribute 0 for a
    GlobalId-shaped string when this returns None.
    """
    attrs = ATTRIBUTES.get(class_name)
    if attrs is None:
        return None
    return bool(attrs) and attrs[0] == "GlobalId"


def is_type_object(class_name: str) -> bool:
    return class_name.endswith("TYPE") and not class_name.startswith("IFCREL")


def attribute_index(class_name: str, attribute: str) -> int | None:
    return POSITIONS.get(class_name, {}).get(attribute)


def camel_case(class_name: str) -> str:
    name = CAMEL_CASE.get(class_name)
    if name is not None:
        return name
    if class_name.startswith("IFC"):
        return "Ifc" + class_name[3:].capitalize()
    return class_name.capitalize()


def short_name(class_name: str) -> str:
    """CamelCase class name without the Ifc prefix, used for auto-naming."""
    name = camel_case(class_name)
    return name[3:] if name.startswith("Ifc") else name
