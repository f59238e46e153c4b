import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sectorsched
from sectorsched import GenParams, SearchLimits, cli
from sectorsched.errors import LimitsExceededError, SectorSchedError
from sectorsched.cli import build_parser, main
from sectorsched import io as sio
from conftest import scenario_from


def run(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestPipeline:
    def test_gen_schedule_simulate(self, tmp_path):
        scenario = tmp_path / "s.json"
        assert run("gen", "--seed", "7", "--out", str(scenario),
                   "--sectors", "12", "--fov", "2", "--tasks", "2", "5") == 0
        partition = tmp_path / "p.json"
        assert run("schedule", "--scenario", str(scenario), "--out", str(partition)) == 0
        assert partition.exists()
        loads = tmp_path / "p.loads.csv"
        assert loads.exists()
        rows = read_csv(loads)
        assert len(rows) == 12
        assert max(float(r["relative_load"]) for r in rows) >= 1.0 - 1e-9

        trace = tmp_path / "t.csv"
        assert run("simulate", "--scenario", str(scenario), "--out", str(trace),
                   "--cycles", "3") == 0
        assert trace.exists()
        assert (tmp_path / "t.revisit.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        outputs = []
        for tag in ("one", "two"):
            d = tmp_path / tag
            d.mkdir()
            scenario = d / "s.json"
            run("gen", "--seed", "11", "--out", str(scenario))
            run("schedule", "--scenario", str(scenario), "--out", str(d / "p.json"))
            run("simulate", "--scenario", str(scenario), "--out", str(d / "t.csv"),
                "--cycles", "2")
            outputs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
        assert outputs[0] == outputs[1]

    def test_schedule_flattens_hotspot(self, tmp_path):
        scenario = tmp_path / "hot.json"
        run("gen", "--seed", "3", "--out", str(scenario), "--sectors", "30",
            "--fov", "5", "--hotspot", "10", "0.4", "4.0")
        greedy = tmp_path / "g.json"
        trivial = tmp_path / "b.json"
        assert run("schedule", "--scenario", str(scenario), "--out", str(greedy)) == 0
        assert run("schedule", "--scenario", str(scenario), "--out", str(trivial),
                   "--policy", "broadside") == 0
        g = max(float(r["relative_load"]) for r in read_csv(tmp_path / "g.loads.csv"))
        b = max(float(r["relative_load"]) for r in read_csv(tmp_path / "b.loads.csv"))
        assert 1.0 - 1e-9 <= g < b


# A command set covering every artifact the CLI writes, and the sha256 of
# each file it leaves behind.  Criterion 8 only compares two runs of the
# same code; these digests pin the bytes across code changes.
GOLDEN_COMMANDS = [
    ["gen", "--seed", "421", "--sectors", "18", "--fov", "3",
     "--hotspot", "4", "0.5", "4", "--out", "s.json"],
    ["schedule", "--scenario", "s.json", "--out", "p.json"],
    ["schedule", "--scenario", "s.json", "--out", "pb.json", "--policy", "broadside"],
    ["simulate", "--scenario", "s.json", "--out", "t_greedy.csv",
     "--policy", "greedy", "--cycles", "4"],
    ["simulate", "--scenario", "s.json", "--out", "t_broadside.csv",
     "--policy", "broadside", "--cycles", "4"],
    ["simulate", "--scenario", "s.json", "--out", "t_edf.csv",
     "--policy", "edf", "--cycles", "4"],
    ["compare", "--scenario", "s.json", "--out", "cmp.csv"],
    ["compare", "--scenario", "s.json", "--out", "cmp.json", "--format", "json"],
    ["gen", "--seed", "3", "--sectors", "4", "--fov", "1", "--tasks", "1", "3",
     "--out", "tiny.json"],
    ["compare", "--scenario", "tiny.json", "--out", "tinycmp.csv", "--exact"],
    ["report", "--seed", "0", "--runs", "3", "--fov", "5", "1", "--out", "bench.csv"],
    ["report", "--runs", "1", "--tasks", "0", "0", "--out", "empty.csv"],
]
GOLDEN_SHA256 = {
    "bench.csv": "f12a5e9fda901bc4575f597754a6ff422e9bf71f20bff50bf2af99a6b6a6af99",
    "bench.summary.csv":
        "95c268e7dad61a2ceb4a775aebc484a0042518d57ce18db49c250f458b768de1",
    "cmp.csv": "7ea8c232f58b34bd1ac7a1d404fc881bdfd7a12e1350d6e7b3c14ca09f62888a",
    "cmp.json": "5675fd9cfe6f7c2a786398787f3dbd9a4a1f3499c09c67b93410fbc18095b33d",
    "empty.csv": "f5426ef017fae79374b979129fcd111105695b20f405040c3af3a916fa839194",
    "empty.summary.csv":
        "755755bbf3b24b81581f08ba0a95acffaf729c3842df60897ba62c4f1fa24c4a",
    "p.json": "5a2aa1b65515479d57009b203687e755e4e2660e23de0c0e3c3a207754dfc6db",
    "p.loads.csv": "e48423459b85b52640c6b24b8995029ecaea60dd935ac84bf031e08b7d200085",
    "pb.json": "0a0d1343d96f66dcbb854618ee46e995fc833b6821299a03e6b36cb324cbf945",
    "pb.loads.csv": "10cc97b840a18c7e2e243bc53236c45e6f0985832397e82e8a66d56f7dd51cfe",
    "s.json": "cd7a26e91775f1513dcc9a5356674543ff6c71e7c5bd51dce9e95ab2de37e801",
    "t_broadside.csv":
        "91e18267b66ba21f3665735b892b08bd6284980b76ebd34ccab0856486e05a13",
    "t_broadside.revisit.csv":
        "b27296277089314b6c2b5f544b0e12f7fd55693e276021d27cccaa94e24b0371",
    "t_edf.csv": "d413987b82e844614dc3d6324013a231a0676f7db6c203bedb99593e8744c4e0",
    "t_edf.revisit.csv":
        "f40987d607cdd4b0ed6b1f871433e6cf1cd9ab1db3121e6c94e849c763ee6848",
    "t_greedy.csv": "84f9a48038ff2db4b569d3a72c41dad7dfbcf3b14fe5bc7b906526386c6cad11",
    "t_greedy.revisit.csv":
        "780bf1c58cd9248fd371fbedca27b0436d794ddc2a6c5d72c2a53fcad5efda8e",
    "tiny.json": "146e5295bcba64f16d99c6ba2bcdf089b1c59b188e9c3a3bf8b257deb040019d",
    "tinycmp.csv": "355e345534f32c18cce236f57861818c589685c16f011af1918bfa543d6dd8a6",
}


def test_artifacts_match_recorded_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in GOLDEN_COMMANDS:
        assert main(argv) == 0, argv
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert digests == GOLDEN_SHA256


# Each later command omits an option the one before it set.
REUSE_COMMANDS = [
    ["gen", "--seed", "8", "--sectors", "12", "--fov", "2",
     "--hotspot", "4", "0.5", "4", "--out", "hot.json"],
    ["gen", "--seed", "8", "--sectors", "12", "--fov", "2", "--out", "plain.json"],
    ["simulate", "--scenario", "plain.json", "--policy", "edf", "--cycles", "2",
     "--out", "edf.csv"],
    ["simulate", "--scenario", "plain.json", "--cycles", "2", "--out", "default.csv"],
]


def test_shared_parser_carries_no_state(tmp_path, monkeypatch, capsys):
    # main reuses one parser per process; each command must still write the
    # bytes it writes in a fresh interpreter.
    assert build_parser() is build_parser()
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    shared.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(shared)
    for argv in REUSE_COMMANDS:
        assert main(argv) == 0, argv
    src = str(Path(sectorsched.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    for argv in REUSE_COMMANDS:
        subprocess.run([sys.executable, "-m", "sectorsched.cli", *argv], cwd=fresh,
                       env=env, check=True, capture_output=True, timeout=120)
    files = {p.name: p.read_bytes() for p in shared.iterdir()}
    assert files == {p.name: p.read_bytes() for p in fresh.iterdir()}
    assert files["hot.json"] != files["plain.json"]
    assert files["edf.csv"] != files["default.csv"]


class TestCompare:
    def test_exact_matches_greedy_on_tiny_instance(self, tmp_path, tri_scenario):
        scenario = tmp_path / "tri.json"
        sio.write_scenario(tri_scenario, scenario)
        out = tmp_path / "cmp.csv"
        assert run("compare", "--scenario", str(scenario), "--out", str(out),
                   "--exact") == 0
        rows = {r["policy"]: r for r in read_csv(out)}
        assert set(rows) == {"greedy", "broadside", "edf", "exact"}
        assert int(rows["greedy"]["completion_pass"]) == 2
        assert int(rows["exact"]["completion_pass"]) == 2
        assert float(rows["greedy"]["max_relative_load"]) == pytest.approx(1.0)

    def test_json_format(self, tmp_path, tri_scenario):
        scenario = tmp_path / "tri.json"
        sio.write_scenario(tri_scenario, scenario)
        out = tmp_path / "cmp.json"
        assert run("compare", "--scenario", str(scenario), "--out", str(out),
                   "--format", "json") == 0
        rows = json.loads(out.read_text(encoding="utf-8"))
        assert [r["policy"] for r in rows] == ["greedy", "broadside", "edf"]

    def test_json_writes_infinite_load_as_inf_string(self, tmp_path):
        # broadside leaves the task homed in the dead sector 0 there
        s = scenario_from(3, 1, 5.0, (0.0, 4.0, 4.0), [(0, 1.0), (1, 1.0)])
        scenario = tmp_path / "dead.json"
        sio.write_scenario(s, scenario)
        out = tmp_path / "cmp.json"
        assert run("compare", "--scenario", str(scenario), "--out", str(out),
                   "--format", "json") == 0

        def reject(token):
            raise AssertionError(f"non-JSON token {token}")

        rows = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject)
        loads = {r["policy"]: r["max_relative_load"] for r in rows}
        assert loads["broadside"] == "inf"
        assert isinstance(loads["greedy"], float)
        csv_out = tmp_path / "cmp.csv"
        assert run("compare", "--scenario", str(scenario), "--out", str(csv_out)) == 0
        assert {r["policy"]: r["max_relative_load"]
                for r in read_csv(csv_out)}["broadside"] == "inf"

    def test_oversized_scenario_skips_exact(self, tmp_path, capsys):
        scenario = tmp_path / "big.json"
        run("gen", "--seed", "5", "--out", str(scenario), "--sectors", "12")
        out = tmp_path / "cmp.csv"
        assert run("compare", "--scenario", str(scenario), "--out", str(out),
                   "--exact") == 0
        assert not any(r["policy"].startswith("exact") for r in read_csv(out))
        assert "exceed max_tasks=12, skipping exact row" in capsys.readouterr().err

    def test_budget_out_skips_exact(self, tmp_path, capsys, monkeypatch):
        # Six 3 s tasks in one 5 s sector need six passes: first-fit finds no
        # plan within five.  With a 0.5 s task beside them, five passes could
        # hold seven tasks by count, so the search starts, and its budget of
        # one node ends it with no plan.
        s = scenario_from(1, 0, 5.0, (5.0,), [(0, 3.0)] * 6 + [(0, 0.5)])
        scenario = tmp_path / "deep.json"
        sio.write_scenario(s, scenario)
        solve = cli.exact_min_passes
        monkeypatch.setattr(cli, "exact_min_passes",
                            lambda scenario, *_: solve(scenario, SearchLimits(node_budget=1)))
        out = tmp_path / "cmp.csv"
        assert run("compare", "--scenario", str(scenario), "--out", str(out),
                   "--exact") == 0
        assert [r["policy"] for r in read_csv(out)] == ["greedy", "broadside", "edf"]
        assert ("note: node budget exhausted before any schedule was found, "
                "skipping exact row") in capsys.readouterr().err

    def test_no_plan_within_the_horizon_skips_exact(self, tmp_path, capsys):
        # Six 3 s tasks in one 5 s sector need six passes, one more than the
        # exact search's five-rotation horizon; the other policies still run.
        s = scenario_from(1, 0, 5.0, (5.0,), [(0, 3.0)] * 6)
        scenario = tmp_path / "deep.json"
        sio.write_scenario(s, scenario)
        out = tmp_path / "cmp.csv"
        assert run("compare", "--scenario", str(scenario), "--out", str(out),
                   "--exact") == 0
        assert [r["policy"] for r in read_csv(out)] == ["greedy", "broadside", "edf"]
        assert ("note: no schedule exists within 5 rotations, skipping exact row"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", [
        ("compare", "--scenario", "missing.json", "--exact"), ("report", "--runs", "1")])
    def test_one_cycle_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                  command):
        def no_work(*args, **kwargs):
            raise AssertionError("a policy ran")

        monkeypatch.setattr(cli, "simulate", no_work)
        out = tmp_path / "out.csv"
        assert run(*command, "--cycles", "1", "--out", str(out)) == 1
        assert ("error: --cycles 1: revisit intervals need >= 2 completed cycles"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare", "report"])
    def test_cycles_past_the_record_cap_are_refused(self, tmp_path, capsys, command):
        # Without the cap this request runs until memory runs out.
        scenario = tmp_path / "s.json"
        assert run("gen", "--seed", "1", "--out", str(scenario)) == 0
        out = tmp_path / "out.csv"
        source = ("--runs", "1") if command == "report" else ("--scenario", str(scenario))
        assert run(command, *source, "--cycles", "99999999999999999999",
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cycles=99999999999999999999 x ")
        assert "exceeds MAX_RECORDS=2000000 records" in err
        assert not out.exists()


class TestReport:
    def test_batch_summary(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run("report", "--seed", "1", "--runs", "3", "--fov", "5", "1",
                   "--sectors", "10", "--tasks", "1", "3", "--out", str(out)) == 0
        detail = read_csv(out)
        assert len(detail) == 3 * 2 * 3  # runs x fovs x policies
        summary = read_csv(tmp_path / "bench.summary.csv")
        assert {(r["fov"], r["policy"]) for r in summary} == \
            {(f, p) for f in ("1", "5") for p in ("greedy", "broadside", "edf")}

    def test_empty_workload(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert run("report", "--tasks", "0", "0", "--runs", "1", "--fov", "5", "1",
                   "--out", str(out)) == 0
        for path in (out, tmp_path / "empty.summary.csv"):
            rows = read_csv(path)
            assert len(rows) == 6  # fovs x policies
            for row in rows:
                completion = row.get("completion_pass") or row["mean_completion_pass"]
                assert float(completion) == -1.0
                for key, value in row.items():
                    if "load" in key or "revisit" in key:
                        assert float(value) == 0.0


    def test_no_runs_writes_the_detail_header(self, tmp_path):
        headers = []
        for runs in ("0", "1"):
            out = tmp_path / f"r{runs}.csv"
            assert run("report", "--runs", runs, "--sectors", "4", "--tasks", "1", "2",
                       "--out", str(out)) == 0
            headers.append(out.read_text(encoding="utf-8").splitlines()[0])
        assert headers[0] == headers[1]
        assert headers[0].startswith("seed,fov,policy,")

    @pytest.mark.parametrize("knobs, message", [
        (("--runs", "-3"), "--runs=-3 must be a non-negative integer"),
        (("--runs", "2", "--fov", "1", "5", "5"), "--fov 5 given twice")])
    def test_refused_before_any_work(self, tmp_path, capsys, monkeypatch, knobs, message):
        def no_work(*args, **kwargs):
            raise AssertionError("a scenario was generated")

        monkeypatch.setattr(cli, "generate", no_work)
        out = tmp_path / "bench.csv"
        assert run("report", *knobs, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["gen", "report"])
def test_generator_defaults_are_gen_params_defaults(command):
    args = build_parser().parse_args([command, "--out", "x"])
    fov = args.fov if command == "gen" else args.fov[0]
    assert cli._gen_params(args, args.seed, fov) == GenParams()


def test_derived_artifact_names(tmp_path, monkeypatch, capsys):
    # <out>.loads.csv and <out>.revisit.csv replace only the last suffix
    monkeypatch.chdir(tmp_path)
    assert run("gen", "--sectors", "4", "--tasks", "1", "2", "--out", "s.json") == 0
    for out in ("part", "part.v1.json"):
        assert run("schedule", "--scenario", "s.json", "--out", out) == 0
    for out in ("trace", "trace.v1.csv"):
        assert run("simulate", "--scenario", "s.json", "--out", out) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "part", "part.loads.csv", "part.v1.json", "part.v1.loads.csv", "s.json",
        "trace", "trace.revisit.csv", "trace.v1.csv", "trace.v1.revisit.csv"]


def test_simulate_warning_text(tmp_path, capsys):
    path = tmp_path / "s.json"
    sio.write_scenario(scenario_from(2, 0, 1.0, (4.0, 9.0), [(0, 5.0), (1, 2.0)]), path)
    assert run("simulate", "--scenario", str(path), "--policy", "broadside",
               "--cycles", "2", "--out", str(tmp_path / "t.csv")) == 0
    assert capsys.readouterr().err == (
        "warning: sector 0: resources 4.0 exceed pass duration 1.0\n"
        "warning: sector 1: resources 9.0 exceed pass duration 1.0\n"
        "warning: task 0 (duration 5.0) overfills sector 0 (resources 4.0) in pass 0\n"
        "warning: task 0 (duration 5.0) overfills sector 0 (resources 4.0) in pass 2\n")


def test_simulate_one_cycle_skips_revisit_stats(tmp_path, capsys):
    path = tmp_path / "s.json"
    sio.write_scenario(scenario_from(2, 0, 1.0, (1.0, 1.0), [(0, 0.5), (1, 0.5)]), path)
    trace = tmp_path / "t.csv"
    assert run("simulate", "--scenario", str(path), "--cycles", "1", "--out", str(trace)) == 0
    assert [row["task_id"] for row in read_csv(trace)] == ["0", "1"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json", "t.csv"]
    assert capsys.readouterr().err == "note: revisit stats need --cycles >= 2, skipped\n"


class TestEmptyScenario:
    @pytest.mark.parametrize("policy", ["greedy", "broadside", "edf"])
    def test_simulate(self, tmp_path, policy):
        scenario = tmp_path / "s.json"
        assert run("gen", "--tasks", "0", "0", "--out", str(scenario)) == 0
        trace = tmp_path / "t.csv"
        assert run("simulate", "--scenario", str(scenario), "--policy", policy,
                   "--cycles", "3", "--out", str(trace)) == 0
        assert read_csv(trace) == []
        assert read_csv(tmp_path / "t.revisit.csv") == []


class TestExitCodes:
    def test_missing_scenario_file(self, tmp_path):
        assert run("schedule", "--scenario", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "p.json")) == 1

    def test_malformed_scenario(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert run("schedule", "--scenario", str(bad),
                   "--out", str(tmp_path / "p.json")) == 1

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({
            "n_sectors": 1, "fov_half_width": 0, "dt": 1.0, "resources": [1.0],
            "tasks": [{"id": 0, "phi": 0.1, "theta": 0.0, "duration": 10 ** 400}]}),
            encoding="utf-8")
        assert run("schedule", "--scenario", str(huge),
                   "--out", str(tmp_path / "p.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "tasks[0].duration" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe{}", "not UTF-8 text"), (b"[" * 200_000, "JSON nested too deeply")],
        ids=["not-utf8", "too-deep"])
    def test_unreadable_scenario_file(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert run("schedule", "--scenario", str(bad),
                   "--out", str(tmp_path / "p.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}")
        assert "Traceback" not in err
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("resources, durations, violation", [
        ([1e308, 1e308], [1.0], "sum beyond the float range"),
        ([1.0, 1.0], [1e308, 1e308], "sum beyond the float range"),
        ([5e-324, 0.0], [1.0, 2.0], "over sector resources beyond the float range")],
        ids=["resources", "durations", "load-ratio"])
    def test_sum_beyond_float_range(self, tmp_path, capsys, resources, durations,
                                    violation):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "n_sectors": 2, "fov_half_width": 1, "dt": 1.0, "resources": resources,
            "tasks": [{"id": k, "phi": 0.1, "theta": 0.0, "duration": d}
                      for k, d in enumerate(durations)]}), encoding="utf-8")
        assert run("schedule", "--scenario", str(path),
                   "--out", str(tmp_path / "p.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and violation in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("knobs", [
        ("--hotspot", "0", "inf", "1"), ("--resources", "nan", "nan"),
        ("--duration", "1", "inf"), ("--resources", "0", "0"),
        ("--hotspot", "1", "0.5", "2", "--hotspot", "1", "0", "1")])
    def test_gen_refuses_an_invalid_scenario(self, tmp_path, capsys, knobs):
        out = tmp_path / "s.json"
        assert run("gen", *knobs, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("hotspot, message", [
        (("1", "1", "nan"), "must be finite"), (("1", "1", "inf"), "must be finite"),
        (("nan", "1", "1"), "hotspot sector nan"), (("1.5", "1", "1"), "hotspot sector 1.5")])
    def test_gen_refuses_a_bad_hotspot(self, tmp_path, capsys, hotspot, message):
        out = tmp_path / "s.json"
        assert run("gen", "--hotspot", *hotspot, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("error", [LimitsExceededError, SectorSchedError])
    def test_any_other_library_refusal_is_an_error(self, tmp_path, capsys, monkeypatch,
                                                   error):
        def refuse(*args, **kwargs):
            raise error("refused")

        monkeypatch.setattr(cli, "generate", refuse)
        assert run("gen", "--out", str(tmp_path / "s.json")) == 1
        assert capsys.readouterr().err == "error: refused\n"

    def test_infeasible_scenario(self, tmp_path):
        s = scenario_from(3, 0, 1.0, (0.0, 5.0, 5.0), [(0, 1.0)])
        path = tmp_path / "dead.json"
        sio.write_scenario(s, path)
        assert run("schedule", "--scenario", str(path),
                   "--out", str(tmp_path / "p.json")) == 2

    def test_usage_error(self, capsys):
        assert run("schedule") == 1
        assert run("frobnicate") == 1

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
