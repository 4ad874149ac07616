"""Seeded procedural scenario generator.

Trajectories are random-waypoint walks clipped to a square area: each UAV
heads for a uniformly drawn waypoint at a fixed per-time-unit speed and draws
the next waypoint on arrival. Informations get a uniform location; every
(uav, time) pair within the gather radius of that location becomes a source
copy, resampling the location until at least one exists. The copies are found
by scanning each UAV's walk over time and jumping past the time steps in
which the UAV cannot close the distance to the radius at its speed (see
`_gatherable`); the copies are exactly those a test of every pair finds. A
scenario is a pure function of its config, including the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, fields, replace

from .errors import GenerationError
from .jsonio import check_int, check_number
from .radio import RadioParams
from .scenario import CACHE_CAPACITIES, CACHE_SINGLE, InfoSpec, Scenario

_RESAMPLE_CAP = 200
_SLACK = 1e-9  # relative margin of a jump in `_gatherable`
MAX_VERTICES = 10 ** 6  # uav_count * horizon; larger only exhausts memory
MAX_COUNTS = {"info_count": 10 ** 4, "subrange_count": 10 ** 3}  # the same


@dataclass(frozen=True)
class GenConfig:
    uav_count: int
    info_count: int
    horizon: int
    channels: int
    area_side: float
    speed: float
    gather_radius: float
    subrange_count: int
    max_range: float
    destinations_per_info: tuple[int, int]
    radio: RadioParams
    seed: int
    cache_capacity: str = CACHE_SINGLE

    def __post_init__(self):
        object.__setattr__(self, "destinations_per_info", tuple(
            check_int(v, "destinations_per_info", ValueError)
            for v in self.destinations_per_info))
        for name in ("uav_count", "info_count", "horizon", "channels",
                     "subrange_count"):
            check_int(getattr(self, name), name, ValueError, low=1,
                      high=MAX_COUNTS.get(name))
        check_int(self.uav_count * self.horizon, "uav_count * horizon",
                  ValueError, high=MAX_VERTICES)
        for name in ("area_side", "speed", "gather_radius", "max_range"):
            check_number(getattr(self, name), name, ValueError, positive=True)
        if self.gather_radius > self.max_range:
            raise ValueError("gather_radius must not exceed max_range")
        lo, hi = self.destinations_per_info
        if not 1 <= lo <= hi <= self.uav_count:
            raise ValueError("destinations_per_info must satisfy "
                             "1 <= lo <= hi <= uav_count, got "
                             f"({lo}, {hi}) with uav_count {self.uav_count}")
        if self.cache_capacity not in CACHE_CAPACITIES:
            raise ValueError(f"cache_capacity must be one of {CACHE_CAPACITIES}")


#: Radio constants of the default evaluation setup. 1 KB = 1000 bytes.
PAPER_RADIO = RadioParams(bandwidth_hz=40e6, path_loss_exponent=2.0,
                          noise_density=1e-9, packet_bits=1_600_000,
                          slot_seconds=0.01)

PROFILES = {
    # full-scale sweeps
    "paper": dict(uav_count=6, info_count=3, horizon=200, channels=2,
                  area_side=150.0, speed=3.0, gather_radius=40.0,
                  subrange_count=10, max_range=60.0,
                  destinations_per_info=(1, 2), radio=PAPER_RADIO),
    # small instances an exact solver can certify
    "micro": dict(uav_count=3, info_count=1, horizon=6, channels=2,
                  area_side=70.0, speed=6.0, gather_radius=22.0,
                  subrange_count=3, max_range=25.0,
                  destinations_per_info=(1, 1), radio=PAPER_RADIO),
}


def make_config(profile: str, seed: int, **overrides) -> GenConfig:
    """Build a GenConfig from a named profile plus keyword overrides."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of "
                         f"{sorted(PROFILES)}")
    params = dict(PROFILES[profile])
    radio_overrides = {}
    for field in fields(RadioParams):
        value = overrides.pop(field.name, None)
        if value is not None:
            radio_overrides[field.name] = value
    for key, value in overrides.items():
        if value is not None:
            params[key] = value
    if radio_overrides:
        params["radio"] = replace(params["radio"], **radio_overrides)
    return GenConfig(seed=seed, **params)


def generate_scenario(config: GenConfig, extra_provenance: dict | None = None) -> Scenario:
    """Generate the scenario determined by `config`; same config, same bytes."""
    rng = random.Random(config.seed)
    area = config.area_side

    trajectories = []
    for _ in range(config.uav_count):
        pos = (rng.uniform(0.0, area), rng.uniform(0.0, area))
        waypoint = (rng.uniform(0.0, area), rng.uniform(0.0, area))
        walk = []
        for _ in range(config.horizon):
            walk.append(pos)
            dx = waypoint[0] - pos[0]
            dy = waypoint[1] - pos[1]
            gap = math.hypot(dx, dy)
            if gap <= config.speed:
                pos = waypoint
                waypoint = (rng.uniform(0.0, area), rng.uniform(0.0, area))
            else:
                scale = config.speed / gap
                pos = (pos[0] + dx * scale, pos[1] + dy * scale)
        trajectories.append(tuple(walk))

    infos = []
    lo, hi = config.destinations_per_info
    for info_id in range(config.info_count):
        sources = None
        for _ in range(_RESAMPLE_CAP):
            loc = (rng.uniform(0.0, area), rng.uniform(0.0, area))
            found = frozenset(
                (u, t)
                for u, walk in enumerate(trajectories)
                for t in _gatherable(walk, loc, config.gather_radius,
                                     config.speed, area))
            if found:
                sources = found
                break
        if sources is None:
            raise GenerationError(
                f"info {info_id}: no gatherable location found in "
                f"{_RESAMPLE_CAP} attempts; widen gather_radius or the walks")
        count = rng.randint(lo, hi)
        destinations = frozenset(rng.sample(range(config.uav_count), count))
        infos.append(InfoSpec(id=info_id, sources=sources,
                              destinations=destinations))

    radii = tuple(config.max_range * k / config.subrange_count
                  for k in range(1, config.subrange_count + 1))
    provenance = {
        "generator": "fleetcast-gen/1",
        "seed": config.seed,
        "config": asdict(config),
    }
    if extra_provenance:
        provenance.update(extra_provenance)
    return Scenario(
        uav_count=config.uav_count,
        horizon=config.horizon,
        channels=config.channels,
        trajectories=tuple(trajectories),
        subrange_radii=radii,
        radio=config.radio,
        infos=tuple(infos),
        cache_capacity=config.cache_capacity,
        provenance=provenance,
    )


def _gatherable(walk, loc, radius, speed, area) -> list:
    """The times t, ascending, with `math.dist(walk[t], loc) <= radius`.

    `walk` is a waypoint walk of `generate_scenario` inside the square of
    side `area`, so it moves at most `speed` per time unit, and `loc` lies
    in that square. A copy at distance d beyond the radius therefore lets
    the scan jump ahead ceil((d - radius) / speed) time units, with margins
    for rounding: d is shrunk by a relative 1e-9, and the radius and the
    step are grown by 1e-9 and by four ulps of `area`. A float step or
    distance is off its exact value by a few ulps of its own size, which
    the relative margins cover over up to 10**6 steps, plus a few ulps of
    the coordinates, which `area` bounds: at a tiny `speed`, rounding a
    position can stretch every step of a walk well past `speed`. A jump
    that would pass the end of the walk ends the scan, so `gap / step` is
    only formed below the horizon and converts to an int whatever the step.
    """
    grain = 4 * math.ulp(area)
    reach = radius * (1 + _SLACK) + grain
    step = speed * (1 + _SLACK) + grain
    horizon = len(walk)
    found = []
    t = 0
    while t < horizon:
        d = math.dist(walk[t], loc)
        if d <= radius:
            found.append(t)
            t += 1
            continue
        gap = d * (1 - _SLACK) - reach
        if gap <= step:
            t += 1
        elif gap >= step * (horizon - t):
            break
        else:
            t += math.ceil(gap / step)
    return found
