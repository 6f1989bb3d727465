"""Run-artifact writers and the command line front end."""
import csv
import json

import numpy as np
import pytest

from contiform import cli, logio
from contiform.scenario import load_scenario
from contiform.simulate import run_scenario

TINY = """
name: tiny
n: 2
dt: 0.001
duration: 0.2
gain: 25.0
agents:
  - {id: 1, position: [0, 0]}
  - {id: 2, position: [6, 0]}
  - {id: 3, position: [0, 6]}
  - {id: 4, position: [1.5, 1.5]}
leader_trajectories:
  1:
    - {time: 0.0, position: [0, 0]}
    - {time: 10.0, position: [10, 0]}
"""


@pytest.fixture(scope="module")
def tiny_log():
    return run_scenario(load_scenario(TINY))


class TestWriteOutputs:
    def test_csv_layout(self, tiny_log, tmp_path):
        paths = logio.write_outputs(tiny_log, str(tmp_path / "run"))
        names = [p.rsplit("/", 1)[-1] for p in paths]
        assert names == ["trajectory.csv", "events.csv", "series.npz",
                         "meta.json"]
        with open(paths[0]) as fh:
            rows = list(csv.reader(fh))
        head = rows[0]
        assert head[0] == "time"
        assert head[1:11] == [f"1_{c}" for c in
                              ("x", "y", "z", "xd", "yd", "zd",
                               "xc", "yc", "zc", "health")]
        assert len(head) == 1 + 10 * 4
        assert len(rows) == 1 + tiny_log.times.shape[0]
        data = np.array(rows[1:], dtype=np.float64)
        np.testing.assert_allclose(data[:, 0], tiny_log.times, atol=1e-9)
        # agent 4 actual x lives 3 agents in: 1 + 10*3
        np.testing.assert_allclose(data[:, 31], tiny_log.actual[:, 3, 0],
                                   rtol=1e-8, atol=1e-9)

    def test_events_csv(self, tiny_log, tmp_path):
        paths = logio.write_outputs(tiny_log, str(tmp_path / "run"))
        with open(paths[1]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "kind", "payload"]
        for row in rows[1:]:
            json.loads(row[2])

    def test_stride(self, tiny_log, tmp_path):
        paths = logio.write_outputs(tiny_log, str(tmp_path / "run"),
                                    stride=10)
        with open(paths[0]) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + tiny_log.times[::10].shape[0]
        # npz keeps every tick regardless of stride
        data = np.load(paths[2])
        assert data["times"].shape == tiny_log.times.shape

    def test_json_format(self, tiny_log, tmp_path):
        paths = logio.write_outputs(tiny_log, str(tmp_path / "run"),
                                    fmt="json")
        with open(paths[0]) as fh:
            doc = json.load(fh)
        assert len(doc["time"]) == tiny_log.times.shape[0]
        assert set(doc["agents"]) == {"1", "2", "3", "4"}
        traj = np.array(doc["agents"]["4"]["actual"])
        np.testing.assert_allclose(traj, tiny_log.actual[:, 3, :])
        with open(paths[1]) as fh:
            events = json.load(fh)
        assert isinstance(events, list)

    def test_meta(self, tiny_log, tmp_path):
        paths = logio.write_outputs(tiny_log, str(tmp_path / "run"))
        with open(paths[3]) as fh:
            meta = json.load(fh)
        assert meta["n"] == 2
        assert meta["dt"] == pytest.approx(0.001)
        assert meta["agent_ids"] == [1, 2, 3, 4]
        assert meta["rows"] == tiny_log.times.shape[0]
        assert meta["digest"] == tiny_log.digest()
        assert len(meta["epochs"]) == 1
        assert meta["epochs"][0]["leaders"] == [1, 2, 3]

    def test_npz_is_exact(self, tiny_log, tmp_path):
        paths = logio.write_outputs(tiny_log, str(tmp_path / "run"))
        data = np.load(paths[2])
        np.testing.assert_array_equal(data["actual"], tiny_log.actual)
        np.testing.assert_array_equal(data["mode"], tiny_log.mode)

    def test_load_outputs_roundtrip(self, tiny_log, tmp_path):
        out = str(tmp_path / "run")
        logio.write_outputs(tiny_log, out)
        data = logio.load_outputs(out)
        np.testing.assert_array_equal(data["actual"], tiny_log.actual)
        assert data["meta"]["digest"] == tiny_log.digest()
        by_file = logio.load_outputs(out + "/meta.json")
        np.testing.assert_array_equal(by_file["times"], tiny_log.times)

    def test_load_missing_series(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            logio.load_outputs(str(tmp_path))

    def test_bad_arguments(self, tiny_log, tmp_path):
        with pytest.raises(ValueError, match="format"):
            logio.write_outputs(tiny_log, str(tmp_path), fmt="xml")
        with pytest.raises(ValueError, match="stride"):
            logio.write_outputs(tiny_log, str(tmp_path), stride=0)


@pytest.fixture()
def tiny_file(tmp_path):
    p = tmp_path / "tiny.yaml"
    p.write_text(TINY)
    return str(p)


class TestCliSimulate:
    def test_exit_zero_and_outputs(self, tiny_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        rc = cli.main(["simulate", tiny_file, "--out", out])
        assert rc == 0
        text = capsys.readouterr().out
        assert "scenario: tiny" in text
        assert "final mode: HDM" in text
        assert "digest: " in text
        with open(out + "/meta.json") as fh:
            assert json.load(fh)["agent_ids"] == [1, 2, 3, 4]

    def test_json_and_stride_flags(self, tiny_file, tmp_path, capsys):
        out = str(tmp_path / "outj")
        rc = cli.main(["simulate", tiny_file, "--out", out,
                       "--format", "json", "--stride", "5"])
        assert rc == 0
        with open(out + "/trajectory.json") as fh:
            doc = json.load(fh)
        assert len(doc["time"]) == 41

    def test_default_out_dir(self, tiny_file, tmp_path, capsys,
                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["simulate", tiny_file])
        assert rc == 0
        assert (tmp_path / "tiny_out" / "series.npz").exists()


class TestCliCheck:
    def test_reports_bounds(self, tiny_file, capsys):
        rc = cli.main(["check", tiny_file])
        assert rc == 0
        text = capsys.readouterr().out
        assert "leaders: [1, 2, 3]" in text
        assert "Xi_max:" in text
        assert "deviation bound:" in text
        assert "sigma threshold:" in text

    def test_bounds_match_simulation_epoch(self, tiny_file, tiny_log, capsys):
        assert cli.main(["check", tiny_file]) == 0
        lines = dict(line.split(": ", 1)
                     for line in capsys.readouterr().out.splitlines())
        epoch = tiny_log.epochs[0]
        assert lines["deviation bound"].startswith(f"{epoch['delta']:.6g} ")
        assert lines["d_min"] == f"{epoch['d_min']:.6g}"
        assert lines["sigma threshold"].startswith(
            f"{epoch['sigma_threshold']:.6g} ")


class TestCliAnalyze:
    @pytest.fixture()
    def run_dir(self, tiny_file, tmp_path):
        out = str(tmp_path / "run")
        assert cli.main(["simulate", tiny_file, "--out", out]) == 0
        return out

    def test_positions(self, run_dir, tmp_path, capsys):
        capsys.readouterr()
        dest = str(tmp_path / "pos.csv")
        rc = cli.main(["analyze", run_dir, "--series", "positions",
                       "--out", dest])
        assert rc == 0
        with open(dest) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["time", "1_x", "1_y", "1_z"]
        assert len(rows) == 1 + 201

    def test_sigma_to_stdout(self, run_dir, capsys):
        capsys.readouterr()
        rc = cli.main(["analyze", run_dir, "--series", "sigma"])
        assert rc == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0].startswith("time,sigma1,sigma2,sigma3")

    def test_weight_bounds_filter(self, run_dir, capsys):
        capsys.readouterr()
        rc = cli.main(["analyze", run_dir, "--series", "weight-bounds",
                       "--agent", "4"])
        assert rc == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert "4_0_w" in head and "4_0_lo" in head
        assert "1_0_w" not in head

    def test_cem_paths_empty_for_hdm_run(self, run_dir, capsys):
        capsys.readouterr()
        rc = cli.main(["analyze", run_dir, "--series", "cem-paths"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["time,agent,x,y,z"]


class TestCliExitCodes:
    def test_scenario_error_is_two(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text(TINY.replace("dt: 0.001\n", ""))
        rc = cli.main(["check", str(p)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("scenario error:")

    def test_missing_file_is_two(self, capsys):
        rc = cli.main(["simulate", "/nonexistent/path.yaml"])
        assert rc == 2

    def test_numeric_error_is_three(self, tmp_path, capsys):
        p = tmp_path / "unstable.yaml"
        p.write_text(TINY.replace("gain: 25.0", "gain: 1000000.0"))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["simulate", str(p), "--out",
                           str(tmp_path / "boom")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("numeric error:")
