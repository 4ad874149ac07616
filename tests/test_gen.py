"""Seeded scenario generation: determinism, motion bounds, distributions."""

import math
import re

import pytest

import instances
from fleetcast import gen
from fleetcast.errors import GenerationError, ScenarioError
from fleetcast.gen import PAPER_RADIO, generate_scenario, make_config
from fleetcast.graph import build_time_expanded_graph
from fleetcast.jsonio import canonical_dumps
from fleetcast.scenario import InfoSpec, scenario_to_dict


def test_config_validation():
    with pytest.raises(ValueError):
        make_config("paper", 1, uav_count=0)
    with pytest.raises(ValueError):
        make_config("paper", 1, gather_radius=100.0, max_range=50.0)
    with pytest.raises(ValueError):
        make_config("paper", 1, destinations_per_info=(0, 1))
    with pytest.raises(ValueError):
        make_config("paper", 1, destinations_per_info=(2, 99))
    with pytest.raises(ValueError):
        make_config("nope", 1)


@pytest.mark.parametrize("overrides, named", [
    (dict(uav_count=1001, horizon=1000), "uav_count * horizon"),
    (dict(uav_count=10 ** 9, horizon=10 ** 9), "uav_count * horizon"),
    (dict(info_count=10 ** 4 + 1), "info_count"),
    (dict(subrange_count=1001), "subrange_count")])
def test_config_refuses_sizes_that_only_exhaust_memory(overrides, named):
    with pytest.raises(ValueError, match=re.escape(f"{named} must be at most")):
        make_config("paper", 1, **overrides)


def test_config_accepts_sizes_at_the_caps():
    config = make_config("paper", 1, uav_count=1000, horizon=1000,
                         info_count=10 ** 4, subrange_count=1000)
    assert config.uav_count * config.horizon == 10 ** 6


def test_paper_profile_radio_constants():
    config = make_config("paper", 0)
    assert config.radio == PAPER_RADIO
    assert config.radio.packet_bits == 1_600_000  # 200 KB at 1 KB = 1000 B
    assert config.radio.slot_seconds == 0.01
    assert config.horizon == 200
    assert config.subrange_count == 10


def test_same_seed_same_bytes():
    config = make_config("micro", 77)
    a = canonical_dumps(scenario_to_dict(generate_scenario(config)))
    b = canonical_dumps(scenario_to_dict(generate_scenario(config)))
    assert a == b


def test_different_seeds_differ():
    a = generate_scenario(make_config("micro", 1))
    b = generate_scenario(make_config("micro", 2))
    assert a.trajectories != b.trajectories


def test_motion_respects_speed_and_area():
    config = make_config("paper", 11, horizon=80)
    scen = generate_scenario(config)
    for traj in scen.trajectories:
        for (x, y) in traj:
            assert 0.0 <= x <= config.area_side
            assert 0.0 <= y <= config.area_side
        for (x0, y0), (x1, y1) in zip(traj, traj[1:]):
            assert math.hypot(x1 - x0, y1 - y0) <= config.speed + 1e-9


def test_generated_scenarios_build_valid_graphs():
    for seed in range(12):
        scen = generate_scenario(make_config("micro", seed))
        graph = build_time_expanded_graph(scen)
        assert graph.vertex_count == scen.uav_count * scen.horizon


def test_every_info_has_sources_and_destinations():
    scen = generate_scenario(make_config("paper", 5, info_count=6))
    assert len(scen.infos) == 6
    for info in scen.infos:
        assert info.sources
        assert 1 <= len(info.destinations) <= scen.uav_count


def test_sources_match_gather_radius():
    config = make_config("micro", 9)
    scen = generate_scenario(config)
    # every recorded source pair must be a position-level fact: within radius
    # of *some* point; weaker sanity: counts grow with the radius
    counts = []
    for radius in (10.0, 25.0, 25.0 * 1.6):
        total = 0
        for seed in range(101):
            s = generate_scenario(make_config(
                "micro", seed, gather_radius=radius, max_range=40.0))
            total += sum(len(i.sources) for i in s.infos)
        counts.append(total / 101)
    assert counts[0] < counts[1] < counts[2]


def test_single_uav_self_delivery_scenario():
    scen = generate_scenario(make_config(
        "micro", 3, uav_count=1, info_count=1, destinations_per_info=(1, 1)))
    info = scen.infos[0]
    assert info.destinations == frozenset({0})
    # the only UAV gathers it, so the optimal plan costs nothing
    from fleetcast.exact import solve_exact
    graph = build_time_expanded_graph(scen)
    report = solve_exact(graph)
    assert report.status == "OPTIMAL" and report.objective == 0.0


def test_gather_radius_covering_area_makes_everything_a_source():
    config = make_config("micro", 4, area_side=30.0, gather_radius=50.0,
                         max_range=60.0)
    scen = generate_scenario(config)
    for info in scen.infos:
        assert len(info.sources) == scen.uav_count * scen.horizon


def test_unreachable_sources_raise():
    # gather radius of ~0 never covers a random walk point
    config = make_config("micro", 8, gather_radius=1e-12, max_range=40.0)
    with pytest.raises(GenerationError):
        generate_scenario(config)


def test_provenance_embedded():
    scen = generate_scenario(make_config("micro", 21),
                             extra_provenance={"profile": "micro"})
    assert scen.provenance["seed"] == 21
    assert scen.provenance["profile"] == "micro"
    assert scen.provenance["config"]["uav_count"] == scen.uav_count


def _gathered(walk, loc, radius):
    """The gather definition, pair by pair: the times within the radius."""
    return [t for t, pos in enumerate(walk) if math.dist(pos, loc) <= radius]


def _fleet_config(seed):
    return make_config("paper", seed, uav_count=30, info_count=20,
                       horizon=500, channels=2, area_side=250.0)


@pytest.mark.parametrize("configs, redraws", [
    pytest.param([make_config("paper", s) for s in range(1, 61)], False,
                 id="paper"),
    pytest.param([make_config("micro", s) for s in range(1, 61)], True,
                 id="micro"),
    pytest.param([_fleet_config(s) for s in range(1, 4)], False, id="fleet"),
    pytest.param([instances.comparison_config(s) for s in range(1, 121)],
                 True, id="comparison"),
    pytest.param([make_config("paper", s, **overrides)
                  for overrides in (dict(speed=1e-7), dict(speed=1e-300),
                                    dict(speed=5e-324), dict(speed=500.0),
                                    dict(gather_radius=60.0), dict(horizon=1))
                  for s in range(1, 21)], True,
                 id="edge-speeds-radius-horizon"),
])
def test_sources_are_every_pair_within_the_gather_radius(monkeypatch, configs,
                                                         redraws):
    scan = gen._gatherable
    drawn = []

    def checked(walk, loc, radius, speed, area):
        found = scan(walk, loc, radius, speed, area)
        assert found == _gathered(walk, loc, radius)
        drawn.append(loc)
        return found

    monkeypatch.setattr(gen, "_gatherable", checked)
    resampled = 0
    for config in configs:
        drawn.clear()
        scenario = generate_scenario(config)
        locations = len(drawn) // config.uav_count
        resampled += locations > config.info_count
        assert len(drawn) == locations * config.uav_count
        assert locations >= config.info_count
        for info in scenario.infos:
            assert info.sources
    if redraws:
        assert resampled  # the resampling path is scanned too


def test_tiny_speed_ends_the_scan_at_the_horizon():
    # a walk that does not move at the least positive speed: the step is
    # the area grain alone, and the scan finds no copy or every copy
    walk = ((10.0, 10.0),) * 500
    loc = (120.0, 80.0)
    assert gen._gatherable(walk, loc, 40.0, 5e-324, 150.0) == []
    assert gen._gatherable(walk, (30.0, 10.0), 40.0, 5e-324, 150.0) == list(
        range(500))


def test_scan_allows_for_positions_rounded_to_the_area_grid():
    # at a tiny speed, rounding each position of a walk to its float grid
    # stretches every step well past `speed`; a jump by (d - radius) / speed
    # would pass over the copies that close the distance
    speed, area = 1.6 * math.ulp(100.0), 150.0  # steps round to 2 ulps
    pos, waypoint = (100.0, 100.0), (101.0, 100.0)
    walk = []
    for _ in range(50):
        walk.append(pos)
        dx, dy = waypoint[0] - pos[0], waypoint[1] - pos[1]
        scale = speed / math.hypot(dx, dy)
        pos = (pos[0] + dx * scale, pos[1] + dy * scale)
    assert math.dist(walk[0], walk[1]) > 1.2 * speed
    loc = walk[40]
    found = gen._gatherable(walk, loc, speed, speed, area)
    assert found == _gathered(walk, loc, speed)
    assert 40 in found


class _Id(int):
    """An int subclass: accepted as a coordinate, as `_is_int` accepts it."""


@pytest.mark.parametrize("sources, error, message", [
    ({(True, 0)}, ScenarioError,
     "info 0: source (True, 0) must be a pair of integers"),
    (frozenset({(0, 1), (2, False)}), ScenarioError,
     "info 0: source (2, False) must be a pair of integers"),
    ([(0, 1.0)], ScenarioError,
     "info 0: source (0, 1.0) must be a pair of integers"),
    ((("0", 1),), ScenarioError,
     "info 0: source ('0', 1) must be a pair of integers"),
    ({"ab"}, ScenarioError,
     "info 0: source ('a', 'b') must be a pair of integers"),
    ([(0, 1, 2)], ValueError, "too many values to unpack (expected 2)"),
    ([(0,)], ValueError, "not enough values to unpack (expected 2, got 1)"),
    ([5], TypeError, "cannot unpack non-iterable int object"),
    ([[0, 1], [0, None]], ScenarioError,
     "info 0: source (0, None) must be a pair of integers"),
    (iter([(0, 1), (1.5, 2)]), ScenarioError,
     "info 0: source (1.5, 2) must be a pair of integers"),
    ((p for p in [(0, True)]), ScenarioError,
     "info 0: source (0, True) must be a pair of integers"),
    (frozenset(), ScenarioError, "info 0: sources must be nonempty"),
    ([], ScenarioError, "info 0: sources must be nonempty"),
    (iter(()), ScenarioError, "info 0: sources must be nonempty"),
])
def test_info_sources_are_refused_with_the_per_pair_wording(
        sources, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        InfoSpec(id=0, sources=sources, destinations={0})


@pytest.mark.parametrize("sources", [
    frozenset({(0, 1), (2, 3)}),
    {(0, 1), (2, 3)},
    [(0, 1), (2, 3), (0, 1)],
    ((2, 3), (0, 1)),
    [[0, 1], [2, 3]],
    iter([(0, 1), (2, 3)]),
    (p for p in [(2, 3), (0, 1)]),
    [(_Id(0), 1), (2, _Id(3))],
])
def test_info_sources_of_any_collection_are_a_frozenset_of_pairs(sources):
    info = InfoSpec(id=0, sources=sources, destinations={0})
    assert type(info.sources) is frozenset
    assert info.sources == {(0, 1), (2, 3)}
    assert all(type(pair) is tuple for pair in info.sources)
