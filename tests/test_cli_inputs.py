"""Bad command-line values are usage errors (exit 1), never internal errors.

Exit code 3 is reserved for bugs, so no argv a user can type may reach it.
Counts, horizons, subrange counts and seed ranges are drawn only from tiny
values: below the caps that `gen` and `sweep` enforce, the generator
allocates memory in proportion to them. Values above the caps are refused
before anything is generated.
"""

import json
import re

import click
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fleetcast.cli
from fleetcast.cli import MAX_SEEDS, _parse_seeds, main

BAD_NUMBERS = ["-1", "0", "2.7", "nan", "inf", "-inf", "1e308", "x", ""]
# half of all draws are small valid values, so that later stages run too
NUMBERS = st.sampled_from(["1", "2", "2.7"]) | st.sampled_from(BAD_NUMBERS)
GEN_FLAGS = ("--uavs", "--infos", "--horizon", "--channels", "--area",
             "--speed", "--gather-radius", "--subranges", "--max-range",
             "--dest-min", "--dest-max", "--packet-kb", "--bandwidth-mhz",
             "--alpha", "--noise-density", "--slot-seconds")
SOLVER_FLAGS = ("--seed", "--budget-nodes", "--budget-seconds",
                "--max-restarts")
SEED_SPECS = (st.sampled_from(["0", "0-1", "1,", "-1", "2,3"])
              | st.sampled_from(["x", "5-x", "1--2", "3-1", ",", "-", "1-",
                                 " ", "0,x", "a-b"]))
VARIABLES = ["packet_size", "bandwidth", "uav_count", "info_count"]
METHODS = ["exact", "mpf", "lpf", "muf", "r"]


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-inputs")
    assert run("gen", "--profile", "micro", "--seed", "7",
               "--out", str(path / "base.json")) == 0
    for folder in ("d1", "d2"):  # two scenario files with one stem
        (path / folder).mkdir()
        (path / folder / "s.json").write_bytes((path / "base.json").read_bytes())
    return path


def flags(draw, names, max_size=3):
    chosen = draw(st.lists(st.sampled_from(names), unique=True,
                           max_size=max_size))
    return [arg for name in chosen for arg in (name, draw(NUMBERS))]


@given(st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_no_command_line_exits_3(work, data):
    draw = data.draw
    gen_flags = flags(draw, GEN_FLAGS)
    solver_flags = flags(draw, SOLVER_FLAGS, max_size=2)
    scenario = work / "drawn.json"
    code = run("gen", "--profile", "micro", "--seed", draw(NUMBERS),
               *gen_flags, "--out", str(scenario))
    assert code in (0, 1)
    if code != 0:
        scenario = work / "base.json"
    method = draw(st.sampled_from(METHODS))
    assert run("solve", str(scenario), "--method", method, *solver_flags,
               "--out", str(work / "report.json")) in (0, 1, 2)
    assert run("lp", str(scenario), *flags(draw, ["--max-variables"]),
               "--out", str(work / "model.lp")) in (0, 1)
    assert run("compare", str(scenario), "--methods", f"exact,{method}",
               *solver_flags, *flags(draw, ["--jobs"]), "--no-markdown",
               "--out", str(work / "compare.csv")) in (0, 1)
    values = ",".join(draw(st.lists(NUMBERS, min_size=1, max_size=2)))
    assert run("sweep", "--profile", "micro",
               "--variable", draw(st.sampled_from(VARIABLES)),
               "--values", values, "--seeds", draw(SEED_SPECS),
               "--method", method, *flags(draw, SOLVER_FLAGS, max_size=1),
               *flags(draw, GEN_FLAGS, max_size=1),
               "--out", str(work / "sweep.csv")) in (0, 1)


@pytest.mark.parametrize("argv, named", [
    (("solve", "{base}", "--method", "exact", "--budget-nodes", "0"),
     "--budget-nodes"),
    (("solve", "{base}", "--method", "exact", "--budget-seconds", "-1"),
     "--budget-seconds"),
    (("solve", "{base}", "--method", "mpf", "--max-restarts", "-1"),
     "--max-restarts"),
    (("sweep", "--variable", "packet_size", "--values", "100",
      "--seeds", "x"), "'x'"),
    (("sweep", "--variable", "packet_size", "--values", "100",
      "--seeds", "5-x"), "'5-x'"),
    (("gen", "--seed", "1", "--packet-kb", "1e308"), "--packet-kb"),
    (("sweep", "--profile", "micro", "--variable", "packet_size",
      "--values", "nan", "--seeds", "0"), "nan"),
    (("sweep", "--profile", "micro", "--variable", "uav_count",
      "--values", "2.7", "--seeds", "0"), "2.7"),
    (("gen", "--seed", "1", "--dest-max", "0"), "(1, 0)"),
    (("gen", "--seed", "1", "--dest-min", "0"), "(0, 2)"),
    (("compare", "{base}", "--methods", "mpf", "--jobs", "-3"), "--jobs"),
    (("gen", "--profile", "micro", "--seed", "1", "--alpha", "1e308"),
     "overflows"),
    (("gen", "--profile", "micro", "--seed", "1", "--speed", "inf"),
     "speed must be positive and finite"),
    (("solve", "{base}", "--method", "exact", "--budget-seconds", "nan"),
     "--budget-seconds"),
    (("compare", "{work}/d1/s.json", "{work}/d2/s.json", "--methods",
      "exact,mpf"), "the stem 's'"),
    (("compare", "{base}", "--methods", "mpf,mpf"),
     "method 'mpf' is listed twice"),
    (("sweep", "--variable", "packet_size", "--values", "100",
      "--seeds", "1,5-3"), "reversed range '5-3'"),
    (("sweep", "--variable", "packet_size", "--values", "100",
      "--seeds", "-1--3"), "reversed range '-1--3'"),
])
def test_bad_value_exits_1_and_names_it(work, capsys, argv, named):
    out = work / "regression.out"
    out.unlink(missing_ok=True)
    argv = [arg.format(base=work / "base.json", work=work) for arg in argv]
    assert run(*argv, "--out", str(out)) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where, value", [
    (("radio", "bandwidth_hz"), 10 ** 400), (("per_uav_radii",), True)],
    ids=["huge-bandwidth", "boolean-per-uav-radii"])
def test_bad_scenario_file_exits_1(work, capsys, where, value):
    doc = json.loads((work / "base.json").read_text())
    parent = doc["radio"] if len(where) == 2 else doc
    parent[where[-1]] = value
    scenario = work / "bad-scenario.json"
    scenario.write_text(json.dumps(doc))
    out = work / "bad-scenario-report.json"
    assert run("solve", str(scenario), "--method", "mpf",
               "--out", str(out)) == 1
    assert where[-1] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "lp"])
@pytest.mark.parametrize("content, named", [
    (b"\xff", "can't decode byte 0xff"),
    (b"[" * 200_000 + b"]" * 200_000, "nested too deeply")],
    ids=["not-utf8", "nested-too-deeply"])
def test_scenario_file_that_is_no_json_text_exits_1(work, capsys, command,
                                                    content, named):
    scenario = work / "no-json-text.json"
    scenario.write_bytes(content)
    out = work / "no-json-text.out"
    argv = ("--method", "mpf") if command == "solve" else ()
    assert run(command, str(scenario), *argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert str(scenario) in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("gen", "--profile", "micro", "--seed", "1"),
    ("solve", "{base}", "--method", "mpf"),
    ("lp", "{base}"),
    ("compare", "{base}", "--methods", "mpf"),
    ("sweep", "--profile", "micro", "--variable", "uav_count", "--values", "2",
     "--seeds", "0"),
], ids=lambda argv: argv[0])
def test_out_in_a_missing_directory_exits_1(work, capsys, argv):
    out = work / "missing" / "out.file"
    argv = [arg.format(base=work / "base.json") for arg in argv]
    assert run(*argv, "--out", str(out)) == 1
    assert f"directory {out.parent} does not exist" in capsys.readouterr().err
    assert not out.parent.exists()


def test_omitted_destination_bound_comes_from_the_profile(tmp_path):
    out = tmp_path / "paper.json"
    assert run("gen", "--profile", "paper", "--seed", "1", "--dest-min", "1",
               "--horizon", "20", "--out", str(out)) == 0
    config = json.loads(out.read_text())["provenance"]["config"]
    assert config["destinations_per_info"] == [1, 2]


def test_destination_bound_outside_the_profile_is_rejected(tmp_path, capsys):
    out = tmp_path / "micro.json"
    assert run("gen", "--profile", "micro", "--seed", "1", "--dest-min", "2",
               "--out", str(out)) == 1
    assert ("destinations_per_info must satisfy 1 <= lo <= hi <= uav_count"
            in capsys.readouterr().err)
    assert not out.exists()


def test_infinite_budget_seconds_means_no_wall_clock_limit(work):
    out = work / "unlimited.json"
    assert run("solve", str(work / "base.json"), "--method", "exact",
               "--budget-seconds", "inf", "--out", str(out)) == 0
    assert json.loads(out.read_text())["status"] in ("OPTIMAL", "INFEASIBLE")


@pytest.mark.parametrize("argv, named", [
    (("gen", "--seed", "1", "--uavs", "100000000"), "uav_count * horizon"),
    (("gen", "--seed", "1", "--profile", "micro", "--horizon", "400000"),
     "uav_count * horizon"),
    (("gen", "--seed", "1", "--infos", "10001"), "info_count"),
    (("gen", "--seed", "1", "--subranges", "1001"), "subrange_count"),
    (("sweep", "--variable", "uav_count", "--values", "3,100000000",
      "--seeds", "0"), "uav_count * horizon"),
    (("sweep", "--variable", "packet_size", "--values", "100",
      "--seeds", "0-999999999"), "more than 100000 seeds"),
    (("sweep", "--variable", "packet_size", "--values", "100",
      "--seeds", "0-49999,50000-100000"), "more than 100000 seeds"),
])
def test_sizes_that_only_exhaust_memory_exit_1(work, capsys, monkeypatch,
                                                argv, named):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused size reached generate_scenario")

    monkeypatch.setattr(fleetcast.cli, "generate_scenario", refuse)
    out = work / "too-large.out"
    assert run(*argv, "--out", str(out)) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_seed_ranges_may_start_below_zero():
    assert _parse_seeds("-3--1") == [-3, -2, -1]
    assert _parse_seeds("-2-2,-5") == [-2, -1, 0, 1, 2, -5]


def test_seed_ranges_are_sized_before_they_are_expanded():
    with pytest.raises(click.UsageError, match="more than"):
        _parse_seeds("0-" + "9" * 4000)
    assert _parse_seeds(f"1-{MAX_SEEDS - 1},0") == list(range(1, MAX_SEEDS)) + [0]
    with pytest.raises(click.UsageError, match="more than"):
        _parse_seeds(f"1-{MAX_SEEDS - 1},0,7")


@pytest.mark.parametrize("spec", ["1_0", "1 - 3", "٣", "+3", "1-٣",
                                  "0x1", "3.0", "1 0"])
def test_seeds_are_ascii_digits_with_an_optional_minus(spec):
    with pytest.raises(click.UsageError, match=re.escape(f"bad seed {spec!r}")):
        _parse_seeds(spec)


def test_seed_items_may_be_spaced_around_commas():
    assert _parse_seeds(" 1-2 , -0,007 ") == [1, 2, 0, 7]


@pytest.mark.parametrize("argv", [
    ("gen", "--profile", "micro", "--seed", "{value}"),
    ("gen", "--profile", "micro", "--seed", "1", "--uavs", "{value}"),
    ("solve", "{base}", "--method", "exact", "--budget-nodes", "{value}"),
], ids=["gen-seed", "uavs", "budget-nodes"])
@pytest.mark.parametrize("value", ["1_0", " 3", "3 ", "٣", "+3"])
def test_integer_flags_are_ascii_digits_with_an_optional_minus(
        work, capsys, argv, value):
    out = work / "strict-int.out"
    out.unlink(missing_ok=True)
    argv = [arg.format(base=work / "base.json", value=value) for arg in argv]
    assert run(*argv, "--out", str(out)) == 1
    assert f"{value!r} is not an integer" in capsys.readouterr().err
    assert not out.exists()


def test_integer_flags_take_a_leading_minus(work):
    # the rule admits "-": the range check, not the reader, refuses it
    assert run("gen", "--profile", "micro", "--seed", "-7",
               "--out", str(work / "minus.json")) == 0
    assert run("solve", str(work / "base.json"), "--method", "mpf",
               "--max-restarts", "-1", "--out", str(work / "minus.out")) == 1


def test_sweep_counts_follow_the_integer_rule(work, capsys):
    out = work / "sweep-strict.csv"
    assert run("sweep", "--profile", "micro", "--variable", "uav_count",
               "--values", "3,1_0", "--seeds", "0", "--out", str(out)) == 1
    assert "'1_0' is not an integer" in capsys.readouterr().err
    assert run("sweep", "--profile", "micro", "--variable", "uav_count",
               "--values", "3, 4", "--seeds", "0", "--out", str(out)) == 0


@pytest.mark.parametrize("argv, value", [
    (("gen", "--profile", "micro", "--seed", "1", "--area"), "5_5"),
    (("gen", "--profile", "micro", "--seed", "1", "--area"), "٥٥"),
    (("gen", "--profile", "micro", "--seed", "1", "--speed"), " 6"),
    (("gen", "--profile", "micro", "--seed", "1", "--alpha"), "nan"),
    (("solve", "{base}", "--method", "exact", "--budget-seconds"), "1_0"),
    (("sweep", "--profile", "micro", "--variable", "packet_size", "--seeds",
      "0", "--values"), "1_0"),
], ids=["area-underscore", "area-arabic-indic", "speed-space", "alpha-nan",
        "budget-seconds-underscore", "sweep-values-underscore"])
def test_float_flags_follow_the_number_rule(work, capsys, argv, value):
    out = work / "strict-float.out"
    out.unlink(missing_ok=True)
    argv = [arg.format(base=work / "base.json") for arg in argv]
    assert run(*argv, value, "--out", str(out)) == 1
    assert f"{value!r} is not a number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("gen", "--profile", "micro", "--seed", "1", "--area", "1e3"),
    ("gen", "--profile", "micro", "--seed", "1", "--speed", ".5"),
    ("gen", "--profile", "micro", "--seed", "1", "--alpha", "2."),
    ("gen", "--profile", "micro", "--seed", "1", "--speed", "+6"),
    ("solve", "{base}", "--method", "exact", "--budget-seconds", "inf"),
    ("solve", "{base}", "--method", "exact", "--budget-seconds", "+INF"),
    ("sweep", "--profile", "micro", "--variable", "packet_size",
     "--values", "2.5E2, 1e3", "--seeds", "0"),
], ids=["exponent", "no-integer-part", "no-fraction", "plus-sign",
        "inf", "signed-upper-case-inf", "sweep-values"])
def test_float_flags_take_signs_fractions_exponents_and_inf(work, argv):
    argv = [arg.format(base=work / "base.json") for arg in argv]
    assert run(*argv, "--out", str(work / "float.out")) == 0
