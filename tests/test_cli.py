"""CLI: exit codes, output files, determinism, and the verify suites."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uavmec import cli
from uavmec.scenario import load

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "sc.json"
    assert cli.main(["gen", "--ues", "6", "--uavs", "2", "--seed", "5",
                     "--out", str(path)]) == 0
    return path


class TestGen:
    def test_writes_loadable_scenario(self, scenario_file):
        sc = load(scenario_file)
        assert sc.n_ues == 6
        assert sc.fleet.num_uavs == 2
        assert sc.seed == 5

    def test_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            cli.main(["gen", "--ues", "4", "--uavs", "2", "--seed", "1",
                      "--out", str(p)])
        assert p1.read_bytes() == p2.read_bytes()


class TestSolve:
    def test_writes_report_and_tables(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["solve", "--scenario", str(scenario_file),
                         "--method", "proposed", "--restarts", "1",
                         "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report_proposed.json").read_text())
        assert report["method"] == "proposed"
        assert report["mu_s"] > 0
        assert report["converged"] is True
        # printed mu matches the report
        printed = capsys.readouterr().out
        assert f"mu={report['mu_s']:.6f}" in printed

        dep_lines = (out / "deployment_proposed.csv").read_text().splitlines()
        assert dep_lines[1] == "uav_id,x_m,y_m,h_m"
        assert len(dep_lines) == 2 + 2          # header comment + header + M rows
        assoc_lines = (out / "association_proposed.csv").read_text().splitlines()
        assert assoc_lines[1] == "ue_id,uav_id"
        assert len(assoc_lines) == 2 + 6

    def test_deployment_cells_are_plain_floats(self, scenario_file, tmp_path,
                                               monkeypatch):
        # each x_m, y_m and h_m cell parses with float() to the report's
        # deployment bit for bit (a numpy scalar's repr, np.float64(...),
        # does not parse)
        reports = {}
        write_report = cli._write_report

        def spy(report, *args):
            reports[report.method] = report
            write_report(report, *args)

        monkeypatch.setattr(cli, "_write_report", spy)
        out = tmp_path / "out"
        assert cli.main(["solve", "--scenario", str(scenario_file),
                         "--method", "all", "--restarts", "1",
                         "--out", str(out)]) == 0
        assert sorted(reports) == ["clbo", "hpo", "proposed", "vpo"]
        for method, report in reports.items():
            lines = (out / f"deployment_{method}.csv").read_text().splitlines()
            cells = np.array([[float(v) for v in line.split(",")[1:]]
                              for line in lines[2:]])
            dep = report.deployment
            assert np.array_equal(cells, np.column_stack([dep.q, dep.h]))

    def test_all_methods(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["solve", "--scenario", str(scenario_file),
                         "--method", "all", "--restarts", "1",
                         "--out", str(out)])
        assert code == 0
        for method in ("proposed", "hpo", "vpo", "clbo"):
            assert (out / f"report_{method}.json").exists()
        clbo = json.loads((out / "report_clbo.json").read_text())
        assert "mu_los" in clbo["extras"] and "mu_eval" in clbo["extras"]

    def test_outputs_byte_reproducible(self, scenario_file, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert cli.main(["solve", "--scenario", str(scenario_file),
                             "--method", "all", "--restarts", "1",
                             "--out", str(out)]) == 0
        for method in ("proposed", "hpo", "vpo", "clbo"):
            for name in (f"report_{method}.json", f"deployment_{method}.csv",
                         f"association_{method}.csv"):
                assert (outs[0] / name).read_bytes() == \
                    (outs[1] / name).read_bytes(), name
        # wall times go to timings.csv, one row per method
        lines = (outs[0] / "timings.csv").read_text().splitlines()
        assert lines[0] == \
            (outs[0] / "deployment_hpo.csv").read_text().splitlines()[0]
        assert lines[1] == "method,wall_ms"
        assert [line.split(",")[0] for line in lines[2:]] == \
            ["proposed", "hpo", "vpo", "clbo"]
        assert all(float(line.split(",")[1]) >= 0 for line in lines[2:])

    def test_clbo_line_shows_outage_model_value(self, scenario_file,
                                                tmp_path, capsys):
        # clbo's mu is its LoS-model objective; the line also carries the
        # outage-model value that the other methods' mu compare with
        out = tmp_path / "out"
        assert cli.main(["solve", "--scenario", str(scenario_file),
                         "--method", "clbo", "--restarts", "1",
                         "--out", str(out)]) == 0
        extras = json.loads((out / "report_clbo.json").read_text())["extras"]
        [line] = capsys.readouterr().out.splitlines()
        assert line.startswith(f"clbo: mu={extras['mu_los']:.6f} s, "
                               f"mu_eval={extras['mu_eval']:.6f} s, ")

    def test_negative_seed_is_error(self, scenario_file, tmp_path, capsys):
        code = cli.main(["solve", "--scenario", str(scenario_file),
                         "--seed", "-1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_missing_scenario_is_error(self, tmp_path, capsys):
        code = cli.main(["solve", "--scenario", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_scenario_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(["solve", "--scenario", str(bad)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-0.5"])
    def test_bad_tolerance_is_error(self, scenario_file, tmp_path, capsys,
                                    tol):
        code = cli.main(["solve", "--scenario", str(scenario_file),
                         "--tol", tol, "--restarts", "1",
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "rel_tol" in capsys.readouterr().err

    @pytest.mark.parametrize("where, key, value", [
        ("ue", "x_m", "12.5"),
        ("fleet", "num_uavs", 2.5),
    ])
    def test_wrong_field_type_is_error(self, scenario_file, tmp_path, capsys,
                                       where, key, value):
        doc = json.loads(scenario_file.read_text())
        (doc["ues"][0] if where == "ue" else doc["fleet"])[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = cli.main(["solve", "--scenario", str(bad), "--restarts", "1",
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error" in err and key in err

    def test_git_describe_runs_once(self, scenario_file, tmp_path,
                                    monkeypatch):
        calls = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        cli._git_describe.cache_clear()
        code = cli.main(["solve", "--scenario", str(scenario_file),
                         "--method", "all", "--restarts", "1",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert len(calls) == 1


class TestSweep:
    SPEC = {
        "sweep_var": "num_ues",
        "values": [3, 5],
        "methods": ["proposed", "hpo"],
        "seeds_per_point": 2,
        "num_uavs": 2,
        "restarts": 1,
    }

    def _run(self, tmp_path, tag):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        out = tmp_path / tag
        assert cli.main(["sweep", "--spec", str(spec_path),
                         "--out", str(out)]) == 0
        return out

    def test_outputs_written(self, tmp_path):
        out = self._run(tmp_path, "s1")
        for name in ("results.csv", "timings.csv", "aggregate.csv",
                     "chart.svg"):
            assert (out / name).exists()
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[1] == "sweep_var,value,method,seed,mu_s,iters,status"
        # 2 values x 2 methods x 2 seeds
        assert len(lines) == 2 + 8
        assert all(line.endswith(",ok") for line in lines[2:])

    def test_results_byte_deterministic(self, tmp_path):
        out1 = self._run(tmp_path, "s1")
        out2 = self._run(tmp_path, "s2")
        assert (out1 / "results.csv").read_bytes() == \
            (out2 / "results.csv").read_bytes()
        assert (out1 / "aggregate.csv").read_bytes() == \
            (out2 / "aggregate.csv").read_bytes()

    def test_two_workers_match_one(self, tmp_path):
        spec = dict(self.SPEC, methods=["proposed", "vpo"])
        outs = [tmp_path / "j1", tmp_path / "j2"]
        for out, jobs in zip(outs, (1, 2)):
            cli.run_sweep(spec, out, jobs=jobs)
        for name in ("results.csv", "aggregate.csv"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes(), name

    def test_mu_parseable_at_full_precision(self, tmp_path):
        out = self._run(tmp_path, "s1")
        lines = (out / "results.csv").read_text().splitlines()[2:]
        for line in lines:
            mu = float(line.split(",")[4])
            assert np.isfinite(mu) and mu > 0
        for line in (out / "aggregate.csv").read_text().splitlines()[2:]:
            fields = line.split(",")
            assert float(fields[3]) > 0 and float(fields[4]) >= 0

    def test_bad_sweep_var_is_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"sweep_var": "power",
                                         "values": [1], "methods": ["hpo"]}))
        code = cli.main(["sweep", "--spec", str(spec_path),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        {"values": [3], "methods": ["hpo"]},
        {"sweep_var": "num_ues", "values": [3.5], "methods": ["hpo"]},
        {"sweep_var": "num_ues", "values": [3], "methods": ["magic"]},
        {"sweep_var": "num_ues", "values": [3], "methods": ["hpo"],
         "num_uavs": "2"},
        [1, 2],
        {"sweep_var": "num_ues", "values": [3], "methods": ["hpo"],
         "seeds": [-1]},
        {"sweep_var": "num_ues", "values": [3], "methods": ["hpo"],
         "max_iters": 0},
        {"sweep_var": "num_ues", "values": [3], "methods": ["hpo"],
         "restarts": 1.5},
        {"sweep_var": "num_ues", "values": [3], "methods": ["hpo"],
         "rel_tol": "0.1"},
    ])
    def test_malformed_spec_is_error(self, tmp_path, capsys, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = cli.main(["sweep", "--spec", str(spec_path),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unsorted_values_rejected(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"sweep_var": "num_ues",
                                         "values": [5, 3],
                                         "methods": ["hpo"]}))
        assert cli.main(["sweep", "--spec", str(spec_path),
                         "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_error(self, tmp_path, capsys, jobs):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        assert cli.main(["sweep", "--spec", str(spec_path), "--out",
                         str(tmp_path / "o"), "--jobs", jobs]) == 1
        assert "jobs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs", [0, -3, True, 2.0, "2"])
    def test_run_sweep_rejects_bad_jobs(self, tmp_path, jobs):
        with pytest.raises(ValueError, match="jobs"):
            cli.run_sweep(self.SPEC, tmp_path / "o", jobs=jobs)

    @pytest.mark.parametrize("jobs, workers", [(2, 2), (3, 3), (64, 8),
                                               (10 ** 6, 8)])
    def test_pool_capped_at_points(self, tmp_path, monkeypatch, jobs,
                                   workers):
        # a stand-in pool that records its size and runs in this process:
        # no worker process is started, whatever jobs asks for
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                            FakePool)
        cli.run_sweep(self.SPEC, tmp_path / "o", jobs=jobs)   # 8 points
        assert sizes == [workers]
        lines = (tmp_path / "o" / "results.csv").read_text().splitlines()
        assert len(lines) == 2 + 8


class TestVerify:
    def test_fast_level_passes(self, capsys):
        assert cli.main(["verify", "--level", "fast"]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 3
        assert all(ln.startswith("PASS") for ln in lines)


class TestUsage:
    @pytest.mark.parametrize("argv", [
        [],
        ["magic"],
        ["gen", "--ues", "x", "--uavs", "2", "--out", "sc.json"],
        ["gen", "--uavs", "2", "--out", "sc.json"],
        ["solve"],
        ["solve", "--scenario", "sc.json", "--restarts", "1.5"],
        ["solve", "--scenario", "sc.json", "--method", "magic"],
        ["sweep", "--spec", "spec.json", "--jobs", "two"],
        ["sweep"],
        ["verify", "--level", "slow"],
    ])
    def test_usage_error_exits_1(self, argv, capsys):
        assert cli.main(argv) == 1
        assert "usage" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--help"], ["gen", "--help"], ["solve", "--help"],
        ["sweep", "--help"], ["verify", "--help"],
    ])
    def test_help_exits_0(self, argv, capsys):
        assert cli.main(argv) == 0
        assert "usage" in capsys.readouterr().out


class TestScripts:
    @pytest.mark.parametrize("argv", [
        ["sweep.py", "--var", "num_ues", "--values", "0", "--uavs", "2",
         "--seeds", "1"],
        ["solve_example.py", "--ues", "0"],
        ["solve_example.py", "--restarts", "0"],
    ])
    def test_malformed_argument_exits_1(self, argv, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                              *argv[1:]], capture_output=True, text=True,
                             cwd=tmp_path, env=env, timeout=120)
        assert run.returncode == 1
        assert any(line.startswith("error: ")
                   for line in run.stderr.splitlines())
        assert "Traceback" not in run.stderr
