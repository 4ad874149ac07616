"""Seeded scenario generation: determinism, motion bounds, distributions."""

import math
import re

import pytest

from fleetcast.errors import GenerationError
from fleetcast.gen import PAPER_RADIO, generate_scenario, make_config
from fleetcast.graph import build_time_expanded_graph
from fleetcast.jsonio import canonical_dumps
from fleetcast.scenario import scenario_to_dict


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
