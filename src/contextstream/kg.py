"""Entity Type Graph (schema) and Entity Graph (instances): validation and
per-record snapshots of the streaming context.

The streaming context is treated as a stream of entity graphs: each snapshot
keeps the static graph's context-free triples and regenerates every
context-dependent triple from one stream record. A snapshot shares the static
graph's entities, its id and name indexes and its observer instead of
rebuilding them, so the per-record work does not grow with the entity count,
and a record with its predecessor's context shares that snapshot's triples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Container, Iterable, Mapping, Optional

from .core import Containment, Coordinates, StreamRecord, Timestamp
from .errors import CycleError, UnknownIdError
from .report import Finding, ValidationReport

DATATYPES = ("string", "integer", "float", "boolean", "timestamp", "coordinates", "enum")

# The context-dependent properties used for hierarchy exclusion when an ETG
# does not declare its own set.
DEFAULT_Q = frozenset(
    {"near", "use", "interact", "in", "do", "happenIn", "during", "participate"}
)

# Structural properties collapsed to direct edges by the hierarchy compiler.
COLLAPSE_PROPERTIES = ("isA", "partOf", "has")


@dataclass(frozen=True)
class DataPropertyDef:
    name: str
    datatype: str
    enum_values: tuple[str, ...] = ()

    def __post_init__(self):
        if self.datatype not in DATATYPES:
            raise ValueError(f"unknown datatype {self.datatype!r} for {self.name!r}")
        if self.datatype == "enum":
            if not self.enum_values:
                raise ValueError(f"enum property {self.name!r} lists no values")
            if len(set(self.enum_values)) != len(self.enum_values):
                raise ValueError(f"enum property {self.name!r} has duplicate values")
        elif self.enum_values:
            raise ValueError(f"property {self.name!r} is not an enum but lists values")


@dataclass(frozen=True)
class EntityType:
    id: str
    name: str
    parent: Optional[str] = None
    data_properties: tuple[DataPropertyDef, ...] = ()


@dataclass(frozen=True)
class ObjectPropertyDef:
    id: str
    name: str
    domain: str
    codomain: str
    context_dependent: bool = False


class ETG:
    """The schema graph. Immutable after construction; structural defects
    (unknown ids, inheritance cycles, property-name collisions) are rejected
    outright since no conforming data can exist for a broken schema."""

    def __init__(
        self,
        etypes: Iterable[EntityType],
        properties: Iterable[ObjectPropertyDef],
        me_etype: str,
        q: Iterable[str] | None = None,
    ):
        self.etypes: dict[str, EntityType] = {}
        for et in etypes:
            if et.id in self.etypes:
                raise ValueError(f"duplicate etype id {et.id!r}")
            self.etypes[et.id] = et
        self.properties: dict[str, ObjectPropertyDef] = {}
        for p in properties:
            if p.id in self.properties:
                raise ValueError(f"duplicate property id {p.id!r}")
            self.properties[p.id] = p
        if me_etype not in self.etypes:
            raise ValueError(f"me etype {me_etype!r} is not a declared etype")
        self.me_etype = me_etype
        for et in self.etypes.values():
            if et.parent is not None and et.parent not in self.etypes:
                raise ValueError(f"etype {et.id!r}: unknown parent {et.parent!r}")
        for p in self.properties.values():
            for end, label in ((p.domain, "domain"), (p.codomain, "codomain")):
                if end not in self.etypes:
                    raise ValueError(f"property {p.id!r}: unknown {label} {end!r}")
        # two parents-first passes, so that a cycle is reported before any
        # property collision; a walk up stops at the first etype already
        # done, so each etype is walked once whatever the depth
        acyclic: set[str] = set()
        for et_id in self.etypes:
            acyclic.update(self._unfinished_chain(et_id, acyclic))
        self._effective: dict[str, Mapping[str, DataPropertyDef]] = {}
        for et_id in self.etypes:
            for sub_id in reversed(self._unfinished_chain(et_id, self._effective)):
                sub = self.etypes[sub_id]
                inherited = self._effective.get(sub.parent, {})
                # shared with the parent if it adds none
                merged = dict(inherited) if sub.data_properties else inherited
                for dp in sub.data_properties:
                    if dp.name in inherited:
                        # named after the first etype whose lineage holds it
                        raise ValueError(f"etype {et_id!r}: data property {dp.name!r} "
                                         "collides with an inherited property")
                    if dp.name in merged:
                        raise ValueError(f"etype {sub_id!r}: data property {dp.name!r} "
                                         "is declared twice")
                    merged[dp.name] = dp
                self._effective[sub_id] = merged
        self.q = frozenset(DEFAULT_Q & set(self.properties) if q is None else q)
        if unknown := self.q - self.properties.keys():
            raise ValueError(f"q lists unknown properties: {sorted(unknown)}")

    def _unfinished_chain(self, etype_id: str | None, done: Container[str]) -> dict[str, None]:
        """`etype_id`, then its ancestors nearest first, up to the first one in
        `done`; CycleError, with the path walked, on an inheritance cycle."""
        chain: dict[str, None] = {}
        while etype_id is not None and etype_id not in done:
            if etype_id in chain:
                raise CycleError([*chain, etype_id])
            chain[etype_id] = None
            etype_id = self.etypes[etype_id].parent
        return chain

    def effective_data_properties(self, etype_id: str) -> Mapping[str, DataPropertyDef]:
        if etype_id not in self._effective:
            raise UnknownIdError(f"unknown etype {etype_id!r}")
        return self._effective[etype_id]

    def is_subtype(self, etype_id: str, ancestor_id: str) -> bool:
        """True when etype_id is ancestor_id or inherits from it."""
        while etype_id != ancestor_id:
            et = self.etypes.get(etype_id)
            if et is None or et.parent is None:
                return False
            etype_id = et.parent
        return True

    def is_observer(self, etype_id: str) -> bool:
        """True when etype_id is a declared etype that is or inherits the
        observer etype (which is declared)."""
        return self.is_subtype(etype_id, self.me_etype)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ETG):
            return NotImplemented
        return (
            self.etypes == other.etypes
            and self.properties == other.properties
            and self.me_etype == other.me_etype
            and self.q == other.q
        )


@dataclass(frozen=True)
class Entity:
    id: str
    name: str
    etype: str
    values: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class PropertyValue:
    """One object-property triple: property(subject, object)."""

    property: str
    subject: str
    object: str


class EG:
    """The instance graph. Construction is permissive; conformance against an
    ETG is checked by validate_eg, which reports instead of raising."""

    def __init__(
        self,
        entities: Iterable[Entity],
        triples: Iterable[PropertyValue],
        at: Timestamp | None = None,
    ):
        self.entities: tuple[Entity, ...] = tuple(entities)
        self.triples: tuple[PropertyValue, ...] = tuple(dict.fromkeys(triples))
        self.at = at
        self._by_id: dict[str, Entity] = {}
        self._by_name: dict[str, list[Entity]] = {}
        for e in self.entities:
            self._by_id.setdefault(e.id, e)
            self._by_name.setdefault(e.name, []).append(e)
        # (etg, observer), (etg, context-free triples, their set), (etg,
        # context-dependent triples) and snapshot_eg's last (etg, record
        # context, triples, context triples, findings), keyed on the ETG object
        # itself: ETGs are immutable but not hashable
        self._observer: tuple[ETG, Entity | None] | None = None
        self._static: tuple[ETG, tuple[PropertyValue, ...], frozenset[PropertyValue]] | None = None
        self._dynamic: tuple[ETG, tuple[PropertyValue, ...]] | None = None
        self._last: tuple[ETG, tuple, tuple[PropertyValue, ...], tuple[PropertyValue, ...],
                          tuple[Finding, ...]] | None = None

    def _with_triples(self, triples: tuple[PropertyValue, ...], at: Timestamp | None) -> EG:
        """A graph over the same entities with duplicate-free `triples`; it
        shares the entity tuple, both indexes and the observer."""
        eg = object.__new__(EG)
        eg.entities, eg.triples, eg.at = self.entities, triples, at
        eg._by_id, eg._by_name = self._by_id, self._by_name
        eg._observer, eg._static, eg._dynamic, eg._last = self._observer, None, None, None
        return eg

    def entity(self, entity_id: str) -> Entity:
        try:
            return self._by_id[entity_id]
        except KeyError:
            raise UnknownIdError(f"unknown entity {entity_id!r}") from None

    def has_entity(self, entity_id: str) -> bool:
        return entity_id in self._by_id

    def resolve(self, ref: str) -> Entity | None:
        """Resolve a reference by id, falling back to a unique name match."""
        if ref in self._by_id:
            return self._by_id[ref]
        matches = self._by_name.get(ref, [])
        return matches[0] if len(matches) == 1 else None

    def me_entity(self, etg: ETG) -> Entity | None:
        """The unique entity typed by the observer etype, if any."""
        if self._observer is None or self._observer[0] is not etg:
            mine = [e for e in self.entities if etg.is_observer(e.etype)]
            self._observer = (etg, mine[0] if len(mine) == 1 else None)
        return self._observer[1]

    def _context_free(self, etg: ETG) -> tuple[tuple[PropertyValue, ...], frozenset[PropertyValue]]:
        """The triples whose property is not context-dependent under `etg`
        (undeclared properties count as static), in order and as a set."""
        if self._static is None or self._static[0] is not etg:
            kept = tuple(t for t in self.triples if not _context_dependent(t, etg))
            self._static = (etg, kept, frozenset(kept))
        return self._static[1], self._static[2]

    def context_triples(self, etg: ETG) -> tuple[PropertyValue, ...]:
        """The triples whose property `etg` declares context-dependent, in
        order; a snapshot knows them from its making."""
        if self._dynamic is None or self._dynamic[0] is not etg:
            self._dynamic = (etg, tuple(t for t in self.triples if _context_dependent(t, etg)))
        return self._dynamic[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EG):
            return NotImplemented
        return (
            sorted(self.entities, key=lambda e: e.id) == sorted(other.entities, key=lambda e: e.id)
            and frozenset(self.triples) == frozenset(other.triples)
            and self.at == other.at
        )


def _context_dependent(t: PropertyValue, etg: ETG) -> bool:
    prop = etg.properties.get(t.property)
    return prop is not None and prop.context_dependent


def _value_matches(dp: DataPropertyDef, value: object) -> bool:
    if dp.datatype == "string":
        return isinstance(value, str)
    if dp.datatype == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if dp.datatype == "float":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if dp.datatype == "boolean":
        return isinstance(value, bool)
    if dp.datatype == "timestamp":
        return isinstance(value, Timestamp)
    if dp.datatype == "coordinates":
        return isinstance(value, Coordinates)
    if dp.datatype == "enum":
        return isinstance(value, str) and value in dp.enum_values
    return False


def validate_eg(etg: ETG, eg: EG) -> ValidationReport:
    """Every conformance violation of `eg` against `etg`: duplicate ids,
    unknown etypes/properties/entities, datatype mismatches, domain/codomain
    violations, a second `partOf` or `during` parent of one entity. An empty
    report means the graph conforms."""
    report = ValidationReport()
    seen: set[str] = set()
    for e in eg.entities:
        if e.id in seen:
            report.add("duplicate-id", "entity id appears more than once", e.id)
            continue
        seen.add(e.id)
        if e.etype not in etg.etypes:
            report.add("unknown-etype", f"etype {e.etype!r} not in the ETG", e.id)
            continue
        effective = etg.effective_data_properties(e.etype)
        for name, value in e.values.items():
            dp = effective.get(name)
            if dp is None:
                report.add(
                    "unknown-data-property",
                    f"value {name!r} not a data property of {e.etype!r}",
                    e.id,
                )
            elif not _value_matches(dp, value):
                report.add(
                    "datatype-mismatch",
                    f"value {name!r}={value!r} does not match datatype {dp.datatype}",
                    e.id,
                )
    containers: dict[tuple[str, str], str] = {}
    for t in eg.triples:
        if t.property in ("partOf", "during"):
            first = containers.setdefault((t.property, t.subject), t.object)
            if first != t.object:
                report.add("several-parents", f"several {t.property} parents, {first!r} and "
                           f"{t.object!r}; containment allows one", t.subject)
        subject_label = f"{t.property}({t.subject}, {t.object})"
        if t.property not in etg.properties:
            report.add("unknown-property", "property not in the ETG", subject_label)
            continue
        prop = etg.properties[t.property]
        ok = True
        for end, expect, role in (
            (t.subject, prop.domain, "domain"),
            (t.object, prop.codomain, "codomain"),
        ):
            if not eg.has_entity(end):
                report.add("unknown-entity", f"{role} entity {end!r} missing", subject_label)
                ok = False
        if not ok:
            continue
        if not etg.is_subtype(eg.entity(t.subject).etype, prop.domain):
            report.add(
                "domain-violation",
                f"subject etype {eg.entity(t.subject).etype!r} is not a {prop.domain!r}",
                subject_label,
            )
        if not etg.is_subtype(eg.entity(t.object).etype, prop.codomain):
            report.add(
                "codomain-violation",
                f"object etype {eg.entity(t.object).etype!r} is not a {prop.codomain!r}",
                subject_label,
            )
    return report


def _add_triple(
    triples: list[PropertyValue],
    etg: ETG,
    prop_id: str,
    subject: Entity | None,
    obj: Entity | None,
    report: ValidationReport,
    what: str,
) -> None:
    if prop_id not in etg.properties:
        report.add("unresolved", f"property {prop_id!r} not declared", what)
        return
    if subject is None or obj is None:
        report.add("unresolved", "endpoint entity not found", what)
        return
    triples.append(PropertyValue(prop_id, subject.id, obj.id))


def check_observer(static_eg: EG, etg: ETG, report: ValidationReport) -> None:
    """Report a static graph without a unique observer entity."""
    if static_eg.me_entity(etg) is None:
        report.add("unresolved", "no unique observer entity in the static EG")


def snapshot_eg(
    static_eg: EG,
    record: StreamRecord,
    etg: ETG,
    report: ValidationReport | None = None,
) -> EG:
    """The entity graph at record.ts: static triples are kept, every
    context-dependent triple is dropped and regenerated from the record.
    The snapshot shares the static graph's entities and indexes; the
    observer and the static triples are computed once per (static_eg, etg),
    and the snapshot's `context_triples` are the fresh ones, found without a
    scan.

    Regeneration: me `in` location, me `do` my actions, each annotated person
    `do` their actions, event `happenIn` location, me and persons
    `participate` in the event, event `during` its super event, and each
    function assignment as a triple of the property named like the function.
    Unresolvable references, the super location included, are reported; the
    snapshot is still produced. Without a unique observer no observer triple
    is made: that is a defect of the static graph, which `check_observer`
    reports once per run rather than once per record.

    The static graph remembers its last snapshot under this `etg`, keyed on
    every record field the regeneration reads (all but `ts` and `coo_me`). A
    record whose key equals its predecessor's gets that snapshot's triples
    tuple and context triples again, at its own `ts`, and the same findings
    are added to `report` in the same order.
    """
    context = (record.location, record.super_location, record.event, record.super_event,
               record.my_actions, record.person_entries, record.object_entries)
    last = static_eg._last
    if last is None or last[0] is not etg or last[1] != context:
        static_triples, static_set = static_eg._context_free(etg)
        found = ValidationReport()
        fresh = tuple(t for t in dict.fromkeys(_regenerate(static_eg, record, etg, found))
                      if t not in static_set)
        # the static prefix is context-free, so only fresh triples can be context-dependent
        dynamic = tuple(t for t in fresh if _context_dependent(t, etg))
        last = static_eg._last = (etg, context, static_triples + fresh, dynamic, tuple(found))
    _, _, triples, dynamic, findings = last
    if report is not None:
        report.findings.extend(findings)
    snapshot = static_eg._with_triples(triples, record.ts)
    snapshot._dynamic = (etg, dynamic)
    return snapshot


def _regenerate(
    static_eg: EG, record: StreamRecord, etg: ETG, report: ValidationReport
) -> list[PropertyValue]:
    """The triples `record` asserts, in order and with repeats; unresolved
    references go to `report`."""
    new: list[PropertyValue] = []
    me = static_eg.me_entity(etg)

    def resolve(ref: str | None, what: str) -> Entity | None:
        entity = None if ref is None else static_eg.resolve(ref)
        if ref is not None and entity is None:
            report.add("unresolved", f"{what} {ref!r} not in the EG")
        return entity

    location = resolve(record.location, "location")
    resolve(record.super_location, "super location")  # checked only: it makes no triple
    event = resolve(record.event, "event")
    super_event = resolve(record.super_event, "super event")

    if me is not None and location is not None:
        _add_triple(new, etg, "in", me, location, report, "me in location")
    if me is not None and record.my_actions:
        for name in sorted(record.my_actions):
            action = static_eg.resolve(name)
            _add_triple(new, etg, "do", me, action, report, f"my action {name!r}")
    if event is not None and location is not None:
        _add_triple(new, etg, "happenIn", event, location, report, "event happenIn location")
    if event is not None and super_event is not None:
        _add_triple(new, etg, "during", event, super_event, report, "event during super event")
    if me is not None and event is not None:
        _add_triple(new, etg, "participate", me, event, report, "me participate event")

    def materialize(fa, actions: frozenset[str] | None, is_person: bool) -> None:
        label = f"{fa.function_name}({fa.beneficiary}, {fa.holder})"
        holder = static_eg.resolve(fa.holder)
        beneficiary = static_eg.resolve(fa.beneficiary)
        _add_triple(new, etg, fa.function_name, beneficiary, holder, report, label)
        if not is_person or holder is None:
            return
        if event is not None:
            _add_triple(new, etg, "participate", holder, event, report, f"{fa.holder} participate")
        for name in sorted(actions or ()):
            action = static_eg.resolve(name)
            _add_triple(new, etg, "do", holder, action, report, f"{fa.holder} does {name!r}")

    for entry in record.person_entries or ():
        materialize(entry.function, entry.actions, is_person=True)
    for fa in record.object_entries or ():
        materialize(fa, None, is_person=False)
    return new


def containment_from_eg(eg: EG, etg: ETG) -> Containment:
    """Parent maps read off the EG's containment triples. A second parent of
    one child is a ValueError (`validate_eg` reports it)."""
    parents: dict[str, dict[str, str]] = {"partOf": {}, "during": {}}
    for t in eg.triples:
        target = parents.get(t.property)
        if target is not None and target.setdefault(t.subject, t.object) != t.object:
            raise ValueError(f"entity {t.subject!r} has several {t.property} parents: "
                             f"{target[t.subject]!r} and {t.object!r}")
    return Containment(location_parent=parents["partOf"], event_parent=parents["during"])
