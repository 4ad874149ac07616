"""Scenario data model validation and lossless file round trips."""

import pytest

import instances
from fleetcast.errors import FormatError, ScenarioError
from fleetcast.gen import generate_scenario, make_config
from fleetcast.scenario import (InfoSpec, Scenario, load_scenario,
                                save_scenario, scenario_from_dict,
                                scenario_to_dict)


def test_round_trip_is_lossless(tmp_path):
    scen = generate_scenario(make_config("micro", 13))
    path = tmp_path / "scenario.json"
    save_scenario(scen, path)
    loaded = load_scenario(path)
    assert loaded == scen
    first = path.read_text()
    save_scenario(loaded, path)
    assert path.read_text() == first  # byte-identical re-save


def test_round_trip_preserves_overrides(tmp_path):
    scen = instances.asymmetric_pair()
    path = tmp_path / "scenario.json"
    save_scenario(scen, path)
    loaded = load_scenario(path)
    assert loaded.per_uav_radii == {1: (1.0,)}
    assert loaded.radii_for(1) == (1.0,)
    assert loaded.radii_for(0) == (10.0,)


def test_dict_round_trip():
    scen = instances.star4()
    assert scenario_from_dict(scenario_to_dict(scen)) == scen


def test_validation_catches_bad_shapes():
    base = instances.chain3()
    with pytest.raises(ScenarioError):
        Scenario(uav_count=2, horizon=1, channels=1,
                 trajectories=base.trajectories, subrange_radii=(10.0,),
                 radio=base.radio, infos=base.infos)
    with pytest.raises(ScenarioError):
        Scenario(uav_count=3, horizon=2, channels=1,
                 trajectories=base.trajectories, subrange_radii=(10.0,),
                 radio=base.radio, infos=base.infos)
    with pytest.raises(ScenarioError):
        Scenario(uav_count=3, horizon=1, channels=1,
                 trajectories=base.trajectories, subrange_radii=(10.0, 5.0),
                 radio=base.radio, infos=base.infos)
    with pytest.raises(ScenarioError):
        Scenario(uav_count=3, horizon=1, channels=0,
                 trajectories=base.trajectories, subrange_radii=(10.0,),
                 radio=base.radio, infos=base.infos)
    with pytest.raises(ScenarioError):
        Scenario(uav_count=3, horizon=1, channels=1,
                 trajectories=base.trajectories, subrange_radii=(10.0,),
                 radio=base.radio, infos=base.infos, cache_capacity="lots")


@pytest.mark.parametrize("field,value", [
    ("uav_count", 3.0), ("horizon", 1.0), ("channels", 1.0),
    ("channels", True), ("horizon", True), ("uav_count", "3"),
    ("channels", None)])
def test_count_fields_must_be_integers(field, value):
    # chain3 has 3 UAVs, horizon 1 and 1 channel: each value equals or
    # names the real count, so only the type check can reject it
    doc = scenario_to_dict(instances.chain3())
    doc[field] = value
    with pytest.raises(ScenarioError, match=field):
        scenario_from_dict(doc)


@pytest.mark.parametrize("key,value", [
    ("sources", [[0.9, 0]]), ("sources", [[0, 0.0]]), ("sources", [[True, 0]]),
    ("sources", [["0", 0]]), ("destinations", [2.7]),
    ("destinations", [2.0]), ("destinations", [True]), ("id", 0.0),
    ("id", False)], ids=["float-uav", "float-time", "bool-uav", "string-uav",
                         "float-dest", "integral-float-dest", "bool-dest",
                         "float-id", "bool-id"])
def test_info_ids_and_times_must_be_integers(key, value):
    # chain3's info 0 gathers at (0, 0) and goes to UAV 2: each value would
    # coerce to a real UAV, time or id, so only the type check rejects it
    doc = scenario_to_dict(instances.chain3())
    doc["infos"][0][key] = value
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


@pytest.mark.parametrize("field,value", [
    ("packet_bits", True), ("bandwidth_hz", True)])
def test_radio_fields_reject_booleans(field, value):
    doc = scenario_to_dict(instances.chain3())
    doc["radio"][field] = value
    with pytest.raises(FormatError, match=field):
        scenario_from_dict(doc)


@pytest.mark.parametrize("field", [
    "bandwidth_hz", "path_loss_exponent", "noise_density", "slot_seconds"])
def test_radio_fields_out_of_float_range_are_format_errors(field):
    doc = scenario_to_dict(instances.chain3())
    doc["radio"][field] = 10 ** 400
    with pytest.raises(FormatError, match=field):
        scenario_from_dict(doc)


@pytest.mark.parametrize("value", [True, [4.0], 3, "x"])
def test_per_uav_radii_must_be_an_object(value):
    doc = scenario_to_dict(instances.chain3())
    doc["per_uav_radii"] = value
    with pytest.raises(FormatError, match="per_uav_radii"):
        scenario_from_dict(doc)


def _with_value(doc, where, value):
    # where: "position", "radius" or "uav-radius", each chain3's first entry
    if where == "position":
        doc["trajectories"][0][0] = value
    elif where == "radius":
        doc["subrange_radii"] = value
    else:
        doc["per_uav_radii"] = {"1": value}
    return doc


@pytest.mark.parametrize("where,value", [
    ("position", [True, "0"]), ("position", [0.0, "0"]),
    ("position", [False, 0.0]), ("position", [0.0, None]),
    ("position", [10 ** 400, 0.0]), ("radius", ["10"]), ("radius", [True]),
    ("radius", [[10.0]]), ("uav-radius", ["10"]), ("uav-radius", [True]),
], ids=["bool-string", "string-y", "bool-x", "null-y", "huge-x",
        "string-radius", "bool-radius", "list-radius", "string-uav-radius",
        "bool-uav-radius"])
def test_positions_and_radii_must_be_numbers(where, value):
    # each value would coerce to a finite float: (1.0, 0.0), (0.0, 0.0),
    # 10.0 or 1.0; only the type check rejects it
    doc = _with_value(scenario_to_dict(instances.chain3()), where, value)
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


@pytest.mark.parametrize("where,value,loaded", [
    ("position", [1, 2], (1.0, 2.0)), ("radius", [10], (10.0,)),
    ("uav-radius", [4, 8.5], (4.0, 8.5))])
def test_positions_and_radii_accept_json_integers(where, value, loaded):
    scen = scenario_from_dict(
        _with_value(scenario_to_dict(instances.chain3()), where, value))
    found = {"position": scen.trajectories[0][0], "radius": scen.subrange_radii,
             "uav-radius": scen.radii_for(1)}[where]
    assert found == loaded
    assert all(type(x) is float for x in found)


@pytest.mark.parametrize("key", ["01", " 1", "1 ", "+1", "1.0", "1_0", "\u0661",
                                 "one", ""])
def test_per_uav_radii_document_keys_must_be_canonical(key):
    doc = scenario_to_dict(instances.chain3())
    doc["per_uav_radii"] = {key: [4.0]}
    with pytest.raises(FormatError):
        scenario_from_dict(doc)


@pytest.mark.parametrize("key, error", [
    ("-1", ScenarioError), ("3", ScenarioError)])
def test_per_uav_radii_canonical_keys_of_missing_uavs(key, error):
    doc = scenario_to_dict(instances.chain3())
    doc["per_uav_radii"] = {key: [4.0]}
    with pytest.raises(error):
        scenario_from_dict(doc)


@pytest.mark.parametrize("key", [True, "1", 1.0, None])
def test_in_memory_per_uav_radii_keys_must_be_ints(key):
    with pytest.raises(ScenarioError):
        instances.static_scenario(
            positions=[(0, 0), (10, 0)], per_uav_radii={key: (1.0,)},
            infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})])


def test_per_uav_radii_int_keys_round_trip(tmp_path):
    scen = instances.static_scenario(
        positions=[(0, 0), (10, 0), (20, 0)], per_uav_radii={2: (4.0, 8.0)},
        infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1})])
    path = tmp_path / "scenario.json"
    save_scenario(scen, path)
    assert load_scenario(path) == scen
    assert load_scenario(path).per_uav_radii == {2: (4.0, 8.0)}


def test_validation_catches_dangling_infos():
    base = instances.chain3()
    with pytest.raises(ScenarioError):
        Scenario(uav_count=3, horizon=1, channels=1,
                 trajectories=base.trajectories, subrange_radii=(10.0,),
                 radio=base.radio,
                 infos=[InfoSpec(id=0, sources={(5, 0)}, destinations={1})])
    with pytest.raises(ScenarioError):
        Scenario(uav_count=3, horizon=1, channels=1,
                 trajectories=base.trajectories, subrange_radii=(10.0,),
                 radio=base.radio,
                 infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={7})])
    with pytest.raises(ScenarioError):
        Scenario(uav_count=3, horizon=1, channels=1,
                 trajectories=base.trajectories, subrange_radii=(10.0,),
                 radio=base.radio,
                 infos=[InfoSpec(id=0, sources={(0, 0)}, destinations={1}),
                        InfoSpec(id=0, sources={(0, 0)}, destinations={2})])


def test_load_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else/9"}')
    with pytest.raises(FormatError):
        load_scenario(path)
    path.write_text("not json at all")
    with pytest.raises(FormatError):
        load_scenario(path)
    path.write_text('{"format": "fleetcast-scenario/1"}')
    with pytest.raises(FormatError):
        load_scenario(path)


@pytest.mark.parametrize("text", [
    '{"format": "fleetcast-scenario/1", "horizon": ' + "1" * 5000 + "}",
    '{"format": "fleetcast-scenario/1", "provenance": {"x": NaN}}',
    '{"format": "fleetcast-scenario/1", "provenance": [-Infinity]}',
], ids=["5000-digit-integer", "nan", "infinity"])
def test_load_rejects_what_json_does_not_allow(tmp_path, text):
    # Python's parser accepts NaN and Infinity, which no fleetcast file
    # may hold, and raises a plain ValueError for an over-long integer
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(FormatError, match="not valid JSON"):
        load_scenario(path)
