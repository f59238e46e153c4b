import csv
import json

import pytest

from sectorsched.cli import main
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

    def test_oversized_scenario_skips_exact(self, tmp_path, capsys):
        scenario = tmp_path / "big.json"
        run("gen", "--seed", "5", "--out", str(scenario), "--sectors", "12")
        out = tmp_path / "cmp.csv"
        assert run("compare", "--scenario", str(scenario), "--out", str(out),
                   "--exact") == 0
        assert not any(r["policy"].startswith("exact") for r in read_csv(out))


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
