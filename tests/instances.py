"""Hand-built scenarios with weights that are easy to reason about.

UNIT_RADIO is tuned so that subrange_weight(r) == r exactly: rate demand is
8 bits over 1 s with an 8 Hz band, so the SNR factor is 2^1 - 1 = 1, and
noise_density * bandwidth == 1 with a path-loss exponent of 1. Distances
therefore read off directly as per-packet energies in joules.
"""

from __future__ import annotations

from fleetcast.gen import make_config
from fleetcast.radio import RadioParams
from fleetcast.scenario import InfoSpec, Scenario

UNIT_RADIO = RadioParams(bandwidth_hz=8.0, path_loss_exponent=1.0,
                         noise_density=0.125, packet_bits=8, slot_seconds=1.0)

PAPER_RADIO = RadioParams(bandwidth_hz=40e6, path_loss_exponent=2.0,
                          noise_density=1e-9, packet_bits=1_600_000,
                          slot_seconds=0.01)


def comparison_config(seed):
    """The comparison-set generator config: |U| in {4, 5}, |I| = 2, T in
    {20, 40}, small enough for the exact solver to certify."""
    return make_config("paper", seed, uav_count=4 + seed % 2,
                       horizon=20 if seed % 2 else 40, info_count=2,
                       channels=1, area_side=180.0, speed=4.0,
                       gather_radius=45.0, max_range=55.0,
                       destinations_per_info=(1, 2))


def static_scenario(positions, infos, radii=(10.0,), channels=2, horizon=1,
                    per_uav_radii=None, cache_capacity="single",
                    radio=UNIT_RADIO):
    """Scenario whose UAVs hover at fixed positions for the whole horizon."""
    trajectories = tuple(
        tuple((float(x), float(y)) for _ in range(horizon)) for x, y in positions)
    return Scenario(
        uav_count=len(positions), horizon=horizon, channels=channels,
        trajectories=trajectories, subrange_radii=radii, radio=radio,
        infos=tuple(infos), per_uav_radii=per_uav_radii,
        cache_capacity=cache_capacity)


def chain3(channels=2):
    """Three UAVs in a 10 m chain; only multi-hop reaches the far end.

    Optimal plan for info 0 is the two-hop path 0->1->2 at 10 + 10 = 20 J.
    """
    return static_scenario(
        positions=[(0, 0), (10, 0), (20, 0)],
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={2})],
        channels=channels)


def star4():
    """One source, a shared hub, and two leaves 10 m from the hub.

    Serving both leaves re-uses the hub's power: the optimal cost is 20 J,
    half of what two independent paths would pay.
    """
    return static_scenario(
        positions=[(0, 0), (10, 0), (20, 0), (10, 10)],
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={2, 3})],
        channels=3)


def crossing_pair(channels):
    """Two UAVs 10 m apart that each want the other's information.

    With channels=1 the single time unit cannot carry both transfers: the
    instance is infeasible. With channels=2 it is feasible at 20 J, but the
    greedy heuristics still fail on it because committing the first tree
    deletes both vertices.
    """
    return static_scenario(
        positions=[(0, 0), (10, 0)],
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1}),
               InfoSpec(id=1, sources={(1, 0)}, destinations={0})],
        channels=channels)


def self_delivery():
    """A lone UAV that is both source and destination: optimal cost 0."""
    return static_scenario(
        positions=[(0, 0)],
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={0})],
        channels=1)


def disjoint_pairs():
    """Two far-apart UAV pairs with one transfer each; trees never interact."""
    return static_scenario(
        positions=[(0, 0), (10, 0), (1000, 0), (1010, 0)],
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1}),
               InfoSpec(id=1, sources={(2, 0)}, destinations={3})],
        channels=2)


def cheap_and_expensive():
    """Info 1 needs a 10 J hop; info 2 needs 10 + 20 = 30 J of hops."""
    return static_scenario(
        positions=[(0, 0), (10, 0), (30, 0)],
        radii=(10.0, 20.0),
        infos=[InfoSpec(id=1, sources={(0, 0)}, destinations={1}),
               InfoSpec(id=2, sources={(0, 0)}, destinations={2})],
        channels=3)


def asymmetric_pair():
    """Two vertices, one edge: UAV 1's range is too short to answer back."""
    return static_scenario(
        positions=[(0, 0), (10, 0)],
        per_uav_radii={1: (1.0,)},
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})],
        channels=1)
