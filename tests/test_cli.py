"""End-to-end CLI flows: exit codes, file outputs, determinism."""

import csv
import hashlib
import json

import pytest

from fleetcast.cli import cli, main
from fleetcast.graph import build_time_expanded_graph
from fleetcast.lp import export_lp, lint_lp
from fleetcast.scenario import load_scenario


def run(*argv):
    return main(list(argv))


@pytest.fixture
def micro_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    code = run("gen", "--profile", "micro", "--seed", "7",
               "--out", str(path))
    assert code == 0
    return path


def test_gen_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run("gen", "--profile", "micro", "--seed", "3", "--out", str(a)) == 0
    assert run("gen", "--profile", "micro", "--seed", "3", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_records_profile_in_header(tmp_path):
    path = tmp_path / "paper.json"
    assert run("gen", "--profile", "paper", "--seed", "1", "--horizon", "20",
               "--out", str(path)) == 0
    doc = json.loads(path.read_text())
    assert doc["provenance"]["profile"] == "paper"
    assert doc["radio"]["bandwidth_hz"] == 40e6
    assert doc["radio"]["packet_bits"] == 1_600_000


def test_gen_rejects_zero_uavs(tmp_path):
    code = run("gen", "--profile", "micro", "--seed", "1", "--uavs", "0",
               "--out", str(tmp_path / "x.json"))
    assert code == 1


def test_unknown_method_is_usage_error(micro_scenario, tmp_path):
    code = run("solve", str(micro_scenario), "--method", "quantum",
               "--out", str(tmp_path / "r.json"))
    assert code == 1


def test_solve_writes_byte_identical_reports(micro_scenario, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        code = run("solve", str(micro_scenario), "--method", "mpf",
                   "--out", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["format"] == "fleetcast-report/1"
    assert doc["status"] == "FEASIBLE"
    assert "runtime" not in json.dumps(doc)  # timing stays out of the file


def test_solve_exact_and_heuristic_agree_on_status(micro_scenario, tmp_path):
    out = tmp_path / "exact.json"
    code = run("solve", str(micro_scenario), "--method", "exact",
               "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "OPTIMAL"


def test_solve_infeasible_exits_2(tmp_path):
    # two UAVs, one channel, both directions needed: provably infeasible
    import instances
    from fleetcast.scenario import save_scenario
    scen_path = tmp_path / "contended.json"
    save_scenario(instances.crossing_pair(1), scen_path)
    code = run("solve", str(scen_path), "--method", "exact",
               "--out", str(tmp_path / "r.json"))
    assert code == 2
    code = run("solve", str(scen_path), "--method", "mpf",
               "--out", str(tmp_path / "r2.json"))
    assert code == 2


def test_solve_rejects_float_horizon(micro_scenario, tmp_path):
    doc = json.loads(micro_scenario.read_text())
    doc["horizon"] = float(doc["horizon"])
    micro_scenario.write_text(json.dumps(doc))
    code = run("solve", str(micro_scenario), "--method", "mpf",
               "--out", str(tmp_path / "r.json"))
    assert code == 1
    assert not (tmp_path / "r.json").exists()


def test_solve_rejects_float_source_uav(micro_scenario, tmp_path):
    doc = json.loads(micro_scenario.read_text())
    doc["infos"][0]["sources"][0][0] += 0.5
    micro_scenario.write_text(json.dumps(doc))
    code = run("solve", str(micro_scenario), "--method", "mpf",
               "--out", str(tmp_path / "r.json"))
    assert code == 1
    assert not (tmp_path / "r.json").exists()


def test_lp_command(micro_scenario, tmp_path):
    out = tmp_path / "model.lp"
    assert run("lp", str(micro_scenario), "--out", str(out)) == 0
    text = out.read_text()
    assert text.startswith("\\ fleetcast-lp/1")
    assert lint_lp(text) == []


def test_lp_command_reports_line_count(micro_scenario, tmp_path, capsys):
    out = tmp_path / "model.lp"
    assert run("lp", str(micro_scenario), "--out", str(out)) == 0
    n_lines = len(out.read_text().splitlines())
    assert capsys.readouterr().out == f"wrote {out} ({n_lines} lines)\n"


def _nan_right_hand_side(export):
    """A document of its own whose one row has the right-hand side `nan`."""
    row = "c1: P_0 >= nan"
    return (f"\\ fleetcast-lp/1\nMinimize\n obj: P_0\nSubject To\n {row}\n"
            "Binaries\nBounds\n 0 <= P_0\nEnd\n"), row


def _joined_sign(export):
    """The real export with one constraint row's ` + ` written as `+`."""
    lines = export.split("\n")
    k = next(k for k, line in enumerate(lines)
             if line.startswith(" c") and " + " in line)
    lines[k] = lines[k].replace(" + ", "+", 1)
    return "\n".join(lines), lines[k].strip()


@pytest.mark.parametrize("break_export", [_nan_right_hand_side, _joined_sign],
                         ids=["nan-rhs", "joined-sign"])
def test_lp_command_exits_3_when_export_fails_its_lint(micro_scenario, tmp_path,
                                                       monkeypatch, capsys,
                                                       break_export):
    # an exporter bug, not a user error: nothing is written and exit code is 3
    graph = build_time_expanded_graph(load_scenario(micro_scenario))
    broken, bad_row = break_export(export_lp(graph))
    monkeypatch.setattr("fleetcast.cli.export_lp", lambda graph, **_: broken)
    out = tmp_path / "model.lp"
    assert run("lp", str(micro_scenario), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert f"failed its own lint: malformed constraint row: {bad_row!r}" in err
    assert not out.exists()


def test_compare_writes_csv_and_means(micro_scenario, tmp_path):
    out = tmp_path / "compare.csv"
    code = run("compare", str(micro_scenario), "--methods", "exact,mpf,r",
               "--out", str(out), "--no-markdown")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# format: fleetcast-compare-csv/1")
    rows = list(csv.DictReader(lines[1:]))
    methods = [r["method"] for r in rows]
    assert methods.count("exact") == 2  # one instance row + one mean row
    mean_rows = [r for r in rows if r["instance"] == "mean"]
    assert len(mean_rows) == 3
    instance_rows = [r for r in rows if r["instance"] != "mean"]
    for row in instance_rows:
        if row["method"] != "exact" and row["status"] == "FEASIBLE":
            assert row["deviation_pct"] != ""
            assert float(row["deviation_pct"]) >= 0.0


def test_compare_leaves_deviation_empty_when_exact_times_out(micro_scenario,
                                                             tmp_path):
    out = tmp_path / "compare.csv"
    code = run("compare", str(micro_scenario), "--methods", "exact,mpf",
               "--budget-nodes", "1", "--out", str(out), "--no-markdown")
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    exact_rows = [r for r in rows
                  if r["method"] == "exact" and r["instance"] != "mean"]
    assert exact_rows[0]["status"] in ("FEASIBLE", "TIMEOUT_NO_SOLUTION")
    assert all(r["deviation_pct"] == "" for r in rows)


def test_compare_handles_heuristic_only(micro_scenario, tmp_path):
    out = tmp_path / "compare.csv"
    code = run("compare", str(micro_scenario), "--methods", "mpf",
               "--out", str(out), "--no-markdown")
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()[1:]))
    assert all(r["deviation_pct"] == "" for r in rows)


def test_sweep_requires_seeds(tmp_path):
    code = run("sweep", "--variable", "packet_size", "--values", "50,100",
               "--seeds", " ", "--out", str(tmp_path / "s.csv"))
    assert code == 1


def test_sweep_rejects_bad_config_as_usage_error(tmp_path):
    out = tmp_path / "s.csv"
    code = run("sweep", "--variable", "uav_count", "--values", "1",
               "--seeds", "0", "--out", str(out))
    assert code == 1
    assert not out.exists()


def test_sweep_packet_size(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run("sweep", "--variable", "packet_size",
               "--values", "100,400", "--seeds", "0-2", "--method", "mpf",
               "--profile", "micro", "--horizon", "8",
               "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# format: fleetcast-sweep-csv/1")
    rows = list(csv.DictReader(lines[1:]))
    assert [r["value"] for r in rows] == ["100.0", "400.0"]
    solved = [r for r in rows if r["mean_objective_joules"]]
    if len(solved) == 2:
        assert float(solved[0]["mean_objective_joules"]) \
            < float(solved[1]["mean_objective_joules"])


def test_out_dir_env_var(tmp_path, monkeypatch, micro_scenario):
    monkeypatch.setenv("FLEETCAST_OUT_DIR", str(tmp_path / "outputs"))
    code = run("solve", str(micro_scenario), "--method", "muf")
    assert code == 0
    produced = list((tmp_path / "outputs").glob("report-muf-*.json"))
    assert len(produced) == 1


def test_jobs_flag_matches_serial_results(micro_scenario, tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert run("compare", str(micro_scenario), "--methods", "mpf,lpf",
               "--out", str(serial), "--no-markdown") == 0
    assert run("compare", str(micro_scenario), "--methods", "mpf,lpf",
               "--jobs", "2", "--out", str(parallel), "--no-markdown") == 0

    def stable_columns(path):
        rows = list(csv.DictReader(path.read_text().splitlines()[1:]))
        return [(r["instance"], r["method"], r["status"],
                 r["objective_joules"], r["deviation_pct"]) for r in rows]

    assert stable_columns(serial) == stable_columns(parallel)


# Output pins, recorded before the flag table and the single solve worker
# replaced the per-command code; valid invocations must keep these bytes.

ALL_GEN_FLAGS = ("--uavs", "4", "--infos", "2", "--horizon", "7",
                 "--channels", "1", "--area", "60", "--speed", "5",
                 "--gather-radius", "20", "--subranges", "4",
                 "--max-range", "30", "--dest-min", "1", "--dest-max", "2",
                 "--packet-kb", "150", "--bandwidth-mhz", "20",
                 "--alpha", "2.5", "--noise-density", "2e-9",
                 "--slot-seconds", "0.02", "--cache", "unlimited")


@pytest.mark.parametrize("argv, digest", [
    (("--profile", "micro", "--seed", "5") + ALL_GEN_FLAGS,
     "bdcc9881503ea44fb42d18a38b918e085df03c294a4fbbaeebaadc986b9e2c0f"),
    (("--profile", "paper", "--seed", "3", "-T", "12"),
     "8da2570ee2059a16b5520f343534b5de9483319c600cbd558da0d2583a8856f1"),
])
def test_gen_bytes_are_pinned(tmp_path, argv, digest):
    out = tmp_path / "scenario.json"
    assert run("gen", *argv, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


SWEEP_HEAD = ("# format: fleetcast-sweep-csv/1 (objectives in joules)\n"
              "variable,value,method,mean_objective_joules,solved,seeds\n")


@pytest.mark.parametrize("argv, body", [
    (("packet_size", "--values", "100,400", "--seeds", "0-2"),
     "packet_size,100.0,mpf,0.25,3,3\npacket_size,400.0,mpf,21.25,3,3\n"),
    (("bandwidth", "--values", "20,40", "--seeds", "0-2"),
     "bandwidth,20.0,mpf,10.625,3,3\nbandwidth,40.0,mpf,1.2500000000000002,3,3\n"),
    (("uav_count", "--values", "3,4", "--seeds", "0-1", "--method", "exact"),
     "uav_count,3.0,exact,0.0,2,2\nuav_count,4.0,exact,1.041666666666667,2,2\n"),
    (("info_count", "--values", "1,2", "--seeds", "0,1", "--method", "r",
      "--seed", "3"),
     "info_count,1.0,r,0.0,2,2\ninfo_count,2.0,r,1.8750000000000002,2,2\n"),
])
def test_sweep_bytes_are_pinned(tmp_path, argv, body):
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--profile", "micro", "--variable", *argv,
               "--out", str(out)) == 0
    assert out.read_text() == SWEEP_HEAD + body


COMPARE_PIN = [
    ["instance", "uavs", "infos", "horizon", "method", "status",
     "objective_joules", "deviation_pct"],
    ["s12", "4", "3", "8", "exact", "OPTIMAL", "0.0", ""],
    ["s12", "4", "3", "8", "mpf", "FEASIBLE", "0.0", "0.0"],
    ["s12", "4", "3", "8", "r", "FEASIBLE", "0.0", "0.0"],
    ["s9", "4", "3", "8", "exact", "OPTIMAL", "12.500000000000002", ""],
    ["s9", "4", "3", "8", "mpf", "FEASIBLE", "18.333333333333336",
     "46.666666666666664"],
    ["s9", "4", "3", "8", "r", "FEASIBLE", "14.583333333333336",
     "16.666666666666668"],
    ["mean", "0", "0", "0", "exact", "", "6.250000000000001", ""],
    ["mean", "0", "0", "0", "mpf", "", "9.166666666666668",
     "23.333333333333332"],
    ["mean", "0", "0", "0", "r", "", "7.291666666666668", "8.333333333333334"],
]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_compare_columns_are_pinned(tmp_path, jobs):
    paths = []
    for seed in ("9", "12"):
        paths.append(str(tmp_path / f"s{seed}.json"))
        assert run("gen", "--profile", "micro", "--seed", seed, "--uavs", "4",
                   "--infos", "3", "--dest-max", "2", "--horizon", "8",
                   "--out", paths[-1]) == 0
    out = tmp_path / "compare.csv"
    assert run("compare", *paths, "--methods", "exact,mpf,r", "--jobs", jobs,
               "--out", str(out), "--no-markdown") == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# format: fleetcast-compare-csv/1 (objectives in joules)"
    rows = list(csv.reader(lines[1:]))
    assert rows[0][-1] == "runtime_ms"
    assert [row[:-1] for row in rows] == COMPARE_PIN


def _flags(command, skip=()):
    return {tuple(p.opts): (repr(p.type), p.default)
            for p in command.params if not set(p.opts) & set(skip)}


def test_commands_share_generator_and_solver_flags():
    gen_flags = _flags(cli.commands["gen"], skip=("--profile", "--seed", "--out"))
    assert len(gen_flags) == 17
    assert gen_flags.items() <= _flags(cli.commands["sweep"]).items()
    solver = ("--seed", "--budget-nodes", "--budget-seconds", "--max-restarts")
    solve_flags = {opts: spec for opts, spec in _flags(cli.commands["solve"]).items()
                   if set(opts) & set(solver)}
    assert len(solve_flags) == len(solver)
    for name in ("compare", "sweep"):
        assert solve_flags.items() <= _flags(cli.commands[name]).items()
