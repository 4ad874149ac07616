"""Scenario data model and its versioned on-disk format.

A scenario fixes everything the planner needs: the fleet's trajectories over
a discretized timeline, the radio constants, the nested subrange radii that
quantize transmit power, the channel budget per time unit, and the pieces of
information to disseminate (where each can be gathered, who needs it).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from itertools import chain

from .errors import FormatError, ScenarioError
from .jsonio import (_int_key, _is_int, check_int, check_number, read_json,
                     write_json)
from .radio import RadioParams, subrange_weight

SCENARIO_FORMAT = "fleetcast-scenario/1"

CACHE_SINGLE = "single"
CACHE_UNLIMITED = "unlimited"
CACHE_CAPACITIES = (CACHE_SINGLE, CACHE_UNLIMITED)

_PAIR_SETS = (frozenset, set, list, tuple)


@dataclass(frozen=True)
class InfoSpec:
    """One piece of information: where it can be gathered and who needs it.

    sources holds (uav, time) pairs at which the information is available for
    pickup; destinations holds UAV ids. Delivery to a destination UAV is
    satisfied by any single time copy of that UAV.
    """

    id: int
    sources: frozenset
    destinations: frozenset

    def __post_init__(self):
        check_int(self.id, "info id", ScenarioError, low=0)
        sources = self.sources
        # a collection of int 2-tuples is checked in whole-set passes; any
        # other input takes the per-pair loop, which words the error
        if not (type(sources) in _PAIR_SETS
                and {*map(type, sources)} <= {tuple}
                and {*map(len, sources)} <= {2}
                and {*map(type, chain.from_iterable(sources))} <= {int}):
            sources = [(u, t) for u, t in sources]
            for u, t in sources:
                if not (_is_int(u) and _is_int(t)):
                    raise ScenarioError(f"info {self.id}: source ({u!r}, "
                                        f"{t!r}) must be a pair of integers")
        destinations = list(self.destinations)
        for u in destinations:
            if not _is_int(u):
                raise ScenarioError(f"info {self.id}: destination {u!r} "
                                    "must be an integer UAV id")
        object.__setattr__(self, "sources", frozenset(sources))
        object.__setattr__(self, "destinations", frozenset(destinations))
        if not self.sources:
            raise ScenarioError(f"info {self.id}: sources must be nonempty")
        if not self.destinations:
            raise ScenarioError(f"info {self.id}: destinations must be nonempty")


@dataclass(frozen=True)
class Scenario:
    uav_count: int
    horizon: int
    channels: int
    trajectories: tuple          # per UAV: tuple of (x, y) positions, length horizon
    subrange_radii: tuple        # strictly ascending outer radii, shared default
    radio: RadioParams
    infos: tuple
    per_uav_radii: dict | None = None   # optional {uav: radii} overrides
    cache_capacity: str = CACHE_SINGLE
    provenance: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "trajectories", tuple(
            tuple((check_number(x, "trajectory position", ScenarioError),
                   check_number(y, "trajectory position", ScenarioError))
                  for x, y in traj)
            for traj in self.trajectories))
        object.__setattr__(self, "subrange_radii", tuple(
            check_number(r, "subrange radius", ScenarioError)
            for r in self.subrange_radii))
        object.__setattr__(self, "infos", tuple(self.infos))
        if self.per_uav_radii is not None:
            for u in self.per_uav_radii:
                check_int(u, "per_uav_radii key", ScenarioError)
            object.__setattr__(self, "per_uav_radii", {
                int(u): tuple(
                    check_number(r, f"radius of UAV {u}", ScenarioError)
                    for r in radii)
                for u, radii in self.per_uav_radii.items()})
        self._validate()

    def _validate(self):
        for name in ("uav_count", "horizon", "channels"):
            check_int(getattr(self, name), name, ScenarioError, low=1)
        if len(self.trajectories) != self.uav_count:
            raise ScenarioError(
                f"expected {self.uav_count} trajectories, got {len(self.trajectories)}")
        for u, traj in enumerate(self.trajectories):
            if len(traj) != self.horizon:
                raise ScenarioError(
                    f"trajectory of UAV {u} has {len(traj)} positions, "
                    f"expected horizon {self.horizon}")
        _check_radii(self.subrange_radii, "subrange_radii")
        if self.per_uav_radii is not None:
            for u, radii in self.per_uav_radii.items():
                if not 0 <= u < self.uav_count:
                    raise ScenarioError(f"per_uav_radii references unknown UAV {u}")
                _check_radii(radii, f"per_uav_radii[{u}]")
        # a plan spends at most the outermost energy at each of the U*T
        # vertices, so this bound keeps every objective a finite float
        outer = max(self.radii_for(u)[-1] for u in range(self.uav_count))
        try:
            energy = subrange_weight(self.radio, outer)
        except OverflowError:
            energy = math.inf
        if not math.isfinite(energy * self.uav_count * self.horizon):
            raise ScenarioError(f"the transmit energy for {outer} m overflows "
                                "a float; check the radio constants")
        if self.cache_capacity not in CACHE_CAPACITIES:
            raise ScenarioError(
                f"cache_capacity must be one of {CACHE_CAPACITIES}, "
                f"got {self.cache_capacity!r}")
        check_infos(self.infos, self.uav_count, self.horizon)

    def radii_for(self, uav: int) -> tuple:
        """Subrange radii used when `uav` transmits."""
        if self.per_uav_radii is not None and uav in self.per_uav_radii:
            return self.per_uav_radii[uav]
        return self.subrange_radii


def check_infos(infos, uav_count: int, horizon: int) -> None:
    """Raise ScenarioError unless the info ids are unique and every source
    and destination lies in a fleet of `uav_count` UAVs over `horizon` units.
    """
    seen_ids = set()
    for info in infos:
        if info.id in seen_ids:
            raise ScenarioError(f"duplicate info id {info.id}")
        seen_ids.add(info.id)
        for u, t in info.sources:
            if not (0 <= u < uav_count and 0 <= t < horizon):
                raise ScenarioError(
                    f"info {info.id}: source ({u}, {t}) outside the scenario")
        for u in info.destinations:
            if not 0 <= u < uav_count:
                raise ScenarioError(
                    f"info {info.id}: destination UAV {u} does not exist")


def _check_radii(radii, label):
    """Radii are finite floats already: check count and order."""
    if len(radii) < 1:
        raise ScenarioError(f"{label} must contain at least one radius")
    prev = 0.0
    for r in radii:
        if not r > prev:
            raise ScenarioError(f"{label} must be strictly ascending and positive")
        prev = r


def scenario_to_dict(scenario: Scenario) -> dict:
    # source copies in (uav, time) order: by vertex id, as 0 <= t < horizon
    h = scenario.horizon
    doc = {
        "format": SCENARIO_FORMAT,
        "uav_count": scenario.uav_count,
        "horizon": scenario.horizon,
        "channels": scenario.channels,
        "cache_capacity": scenario.cache_capacity,
        "radio": asdict(scenario.radio),
        "subrange_radii": list(scenario.subrange_radii),
        "trajectories": [[[x, y] for x, y in traj] for traj in scenario.trajectories],
        "infos": [
            {
                "id": info.id,
                "sources": [[v // h, v % h] for v in
                            sorted([u * h + t for u, t in info.sources])],
                "destinations": sorted(info.destinations),
            }
            for info in sorted(scenario.infos, key=lambda i: i.id)
        ],
    }
    if scenario.per_uav_radii is not None:
        doc["per_uav_radii"] = {
            str(u): list(radii) for u, radii in sorted(scenario.per_uav_radii.items())}
    if scenario.provenance is not None:
        doc["provenance"] = scenario.provenance
    return doc


def scenario_from_dict(doc: dict) -> Scenario:
    try:
        radio = RadioParams(**{f.name: doc["radio"][f.name]
                               for f in fields(RadioParams)})
        per_uav = doc.get("per_uav_radii")
        if per_uav is not None:
            if not isinstance(per_uav, dict):
                raise FormatError(
                    f"per_uav_radii must be an object, got {per_uav!r}")
            per_uav = {_uav_key(u): tuple(radii) for u, radii in per_uav.items()}
        return Scenario(
            uav_count=doc["uav_count"],
            horizon=doc["horizon"],
            channels=doc["channels"],
            trajectories=doc["trajectories"],
            subrange_radii=doc["subrange_radii"],
            radio=radio,
            infos=tuple(
                InfoSpec(id=entry["id"],
                         sources=[tuple(src) for src in entry["sources"]],
                         destinations=list(entry["destinations"]))
                for entry in doc["infos"]),
            per_uav_radii=per_uav,
            cache_capacity=doc.get("cache_capacity", CACHE_SINGLE),
            provenance=doc.get("provenance"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed scenario document: {exc!r}") from None


def _uav_key(key) -> int:
    """A per_uav_radii document key: a UAV id in canonical decimal text."""
    uav = _int_key(key)
    if uav is None:
        raise FormatError(f"per_uav_radii key {key!r} is not a UAV id in "
                          "canonical decimal form")
    return uav


def save_scenario(scenario: Scenario, path) -> None:
    write_json(path, scenario_to_dict(scenario))


def load_scenario(path) -> Scenario:
    return scenario_from_dict(read_json(path, SCENARIO_FORMAT))
