"""End-to-end CLI flows: exit codes, file outputs, determinism."""

import csv
import json
from pathlib import Path

import pytest

from fleetcast.cli import main
from fleetcast.lp import lint_lp


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


def test_lp_command_exits_3_when_export_fails_its_lint(micro_scenario, tmp_path,
                                                       monkeypatch, capsys):
    # an exporter bug, not a user error: nothing is written and exit code is 3
    broken = ("\\ fleetcast-lp/1\nMinimize\n obj: P_0\nSubject To\n"
              " c1: P_0 >= nan\nBinaries\nBounds\n 0 <= P_0\nEnd\n")
    monkeypatch.setattr("fleetcast.cli.export_lp", lambda graph, **_: broken)
    out = tmp_path / "model.lp"
    assert run("lp", str(micro_scenario), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "failed its own lint: c1: right-hand side 'nan' not numeric" in err
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
