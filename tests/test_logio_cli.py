"""Run-artifact writers and the command line front end."""
import ast
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import REPO_ROOT, TEAM22
from test_lookahead import CEM_DRIFT, failure_doc, team7

from contiform import cli, logio
from contiform.scenario import load_scenario
from contiform.automaton import Mode
from contiform.simulate import (HEALTH_EXCLUDED, MODE_CODE, Simulation,
                                TrajectoryLog, run_scenario)

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

    def test_json_is_strict(self, tmp_path):
        """RFC 8259 has no NaN: on TEAM7's CEM drift, whose CEM rows leave
        the flagged agent's desired positions NaN, both documents parse
        with every non-finite constant refused and hold null there."""
        log = Simulation(team7(failure_doc(*CEM_DRIFT))).run()
        logio.write_outputs(log, str(tmp_path), fmt="json")

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        doc, events = (json.loads((tmp_path / name).read_text(),
                                  parse_constant=refuse)
                       for name in ("trajectory.json", "events.json"))
        agent = doc["agents"]["4"]   # drifting, flagged from row 115 on
        assert agent["local_desired"][200] == [None] * 3
        assert agent["actual"][200] == log.actual[200, 3].tolist()
        assert [e["kind"] for e in events] == [e.kind for e in log.events]

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

    def test_meta_codes(self, tiny_log, tmp_path):
        """The code tables, in their order: meta.json's bytes pin them."""
        paths = logio.write_outputs(tiny_log, str(tmp_path / "run"))
        with open(paths[3]) as fh:
            meta = json.load(fh)
        assert list(meta["mode_codes"].items()) == [("0", "HDM"), ("1", "CEM")]
        assert list(meta["health_codes"].items()) == [
            ("1", "healthy"), ("0", "flagged"), ("-1", "excluded")]

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


@pytest.fixture(scope="module")
def cem_log():
    """A run with CEM rows, whose desired columns of the flagged agent
    are NaN, and an excluded agent."""
    from test_lookahead import CEM_DRIFT, failure_doc, team7
    log = Simulation(team7(failure_doc(*CEM_DRIFT))).run()
    cem = log.mode == MODE_CODE[Mode.CEM]
    assert cem.any() and (log.health == HEALTH_EXCLUDED).any()
    assert np.isnan(log.local_desired[cem]).any()
    return log


def savetxt_oracle(log, path, stride):
    """trajectory.csv as one np.savetxt over the whole matrix."""
    mat = np.empty((log.times[::stride].shape[0], 1 + 10 * len(log.agent_ids)))
    mat[:, 0] = log.times[::stride]
    for i, a in enumerate(log.agent_ids):
        base = 1 + 10 * i
        mat[:, base:base + 3] = log.actual[::stride, i]
        mat[:, base + 3:base + 6] = log.local_desired[::stride, i]
        mat[:, base + 6:base + 9] = log.global_desired[::stride, i]
        mat[:, base + 9] = log.health[::stride, i]
    header = ",".join(["time"] + [f"{a}_{c}" for a in log.agent_ids
                                  for c in ("x", "y", "z", "xd", "yd", "zd",
                                            "xc", "yc", "zc", "health")])
    np.savetxt(path, mat, fmt="%.10g", delimiter=",", header=header,
               comments="")


class TestStreamedTrajectory:
    @pytest.mark.parametrize("stride", [1, 3, 100])
    @pytest.mark.parametrize("chunk_rows", [7, logio._CSV_CHUNK_ROWS])
    def test_bytes_match_savetxt(self, cem_log, tmp_path, monkeypatch,
                                 stride, chunk_rows):
        monkeypatch.setattr(logio, "_CSV_CHUNK_ROWS", chunk_rows)
        paths = logio.write_outputs(cem_log, str(tmp_path / "run"),
                                    stride=stride)
        savetxt_oracle(cem_log, tmp_path / "oracle.csv", stride)
        assert (tmp_path / "oracle.csv").read_bytes() == \
            open(paths[0], "rb").read()

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("chunk_rows", [1, 7, 256])
    @settings(max_examples=40)
    @given(data=st.data())
    def test_constant_columns_match_savetxt(self, stride, chunk_rows, data):
        log = columns_log(data, stride)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(logio, "_CSV_CHUNK_ROWS", chunk_rows):
            logio._write_trajectory_csv(f"{tmp}/t.csv", log, stride)
            savetxt_oracle(log, f"{tmp}/oracle.csv", stride)
            with open(f"{tmp}/t.csv", "rb") as a, \
                    open(f"{tmp}/oracle.csv", "rb") as b:
                assert a.read() == b.read()

    def test_digest_hashes_the_array_bytes(self, cem_log):
        h = hashlib.sha256()
        for name in ("times", "actual", "local_desired", "global_desired",
                     "weights", "bounds_lo", "bounds_hi", "health", "mode",
                     "center", "sigma", "margin_ok"):
            h.update(getattr(cem_log, name).tobytes())
        h.update(json.dumps([[e.time, e.kind, e.payload]
                             for e in cem_log.events], sort_keys=True).encode())
        assert cem_log.digest() == h.hexdigest()


POOL = (0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e-5, 1e16,
        123.456)


def columns_log(data, stride):
    """The trajectory.csv fields of a small log whose columns hold values
    from POOL and a few drawn floats, each column changing only every
    `period` rows, so that it is constant over some chunks and varies
    inside others.  Agent 0 always has a -0.0 in its otherwise-zero z
    column, an all-NaN zc column and a health change on its third
    written row."""
    rows = data.draw(st.integers(3 * stride, 60), label="rows")
    agents = data.draw(st.integers(1, 3), label="agents")
    cols = 1 + 10 * agents
    pool = POOL + tuple(data.draw(st.lists(st.floats(), min_size=3,
                                           max_size=3), label="floats"))
    periods = data.draw(st.lists(st.sampled_from([1, 2, 8, 1000]),
                                 min_size=cols, max_size=cols),
                        label="periods")
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                               min_size=rows * cols, max_size=rows * cols),
                      label="picks")
    mat = np.array([[pool[picks[(r // periods[c]) * cols + c]]
                     for c in range(cols)] for r in range(rows)])
    agent = mat[:, 1:].reshape(rows, agents, 10)
    agent[:, 0, 2] = 0.0
    agent[stride, 0, 2] = -0.0
    agent[:, 0, 8] = np.nan
    health = np.sign(np.nan_to_num(agent[..., 9])).astype(np.int8)
    health[:, 0] = 1
    health[2 * stride:, 0] = 0
    return SimpleNamespace(
        agent_ids=tuple(range(1, agents + 1)), times=mat[:, 0],
        actual=agent[..., 0:3], local_desired=agent[..., 3:6],
        global_desired=agent[..., 6:9], health=health)


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

    def test_prints_the_meta_digest_hashed_once(self, tiny_file, tmp_path,
                                                capsys, monkeypatch):
        calls = []
        digest = TrajectoryLog.digest

        def counted(log):
            calls.append(1)
            return digest(log)

        monkeypatch.setattr(TrajectoryLog, "digest", counted)
        out = str(tmp_path / "out")
        assert cli.main(["simulate", tiny_file, "--out", out]) == 0
        assert len(calls) == 1
        with open(out + "/meta.json") as fh:
            meta_digest = json.load(fh)["digest"]
        assert f"digest: {meta_digest}\n" in capsys.readouterr().out

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

    def test_failure_beyond_the_end_is_one_summary_line(self, tmp_path,
                                                        capsys):
        """A declared failure the run never reaches is reported on stdout,
        naming the agent and the time, and raises no warning."""
        path = tmp_path / "late.yaml"
        path.write_text(TINY + "failures:\n"
                        "  - {agent: 4, time: 7.5, kind: freeze}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["simulate", str(path), "--out",
                           str(tmp_path / "out")])
        assert rc == 0
        out, err = capsys.readouterr()
        assert [line for line in out.splitlines() if "ignored" in line] == [
            "ignored: failure of agent 4 at t=7.5 is beyond the run's end"]
        assert err == ""


class TestCliCheck:
    def test_closes_the_scenario_file(self):
        """check reads the scenario file without leaking its handle."""
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-m",
             "contiform", "check", str(TEAM22)],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT)
        assert done.returncode == 0
        assert done.stderr == ""

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

    def test_d_min_override_is_the_epochs(self, tmp_path, capsys):
        """An epoch logs the d_min its sigma threshold used, the
        scenario's override, as check prints it."""
        path = tmp_path / "dmin.yaml"
        path.write_text(TINY + "d_min: 1.5\n")
        assert cli.main(["check", str(path)]) == 0
        lines = dict(line.split(": ", 1)
                     for line in capsys.readouterr().out.splitlines())
        [epoch] = Simulation(load_scenario(path)).log.epochs
        assert epoch["d_min"] == 1.5
        assert lines["d_min"] == f"{epoch['d_min']:.6g}"
        assert lines["sigma threshold"].startswith(
            f"{epoch['sigma_threshold']:.6g} ")

    @pytest.mark.parametrize("name", ["team22", "lattice27"])
    def test_reads_the_runs_first_epoch(self, name, tmp_path, monkeypatch):
        """check takes its epoch and tick count from the run's own path:
        its epoch's meta() is the run's first (team22 cut to 10 s)."""
        path = tmp_path / f"{name}.yaml"
        path.write_text((REPO_ROOT / "scenarios" / f"{name}.yaml").read_text()
                        .replace("duration: 125.0", "duration: 10.0"))
        seen, first = [], cli._first_epoch
        monkeypatch.setattr(cli, "_first_epoch", lambda *args: seen.append(
            first(*args)) or seen[-1])
        assert cli.main(["check", str(path)]) == 0
        [(ticks, epoch)] = seen
        sim = Simulation(load_scenario(path))
        assert epoch.meta() == sim.epochs[0]
        assert ticks == sim.total_ticks

    def test_plan_report_of_team22(self, capsys):
        """The first epoch's plan over the whole 125 s run, after the
        bounds: sigma clears the threshold, the centres stay 3.7 m apart,
        and the leaders' planned lag is well inside Delta."""
        assert cli.main(["check", str(TEAM22)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-4].startswith("failure: agent 11 freeze")
        assert lines[-3:] == [
            "plan sigma_min: 0.9 against threshold 0.328831, "
            "first tick below: none",
            "plan separation bound: 3.69567 m (sigma_min*d_min - 2*delta) "
            "against 2*radius 1 m, margin 2.69567 m",
            "plan leader speed: 2 m/s, lag v/g 0.08 m against deviation "
            "bound 0.535041 m"]

    def test_plan_report_names_the_first_tick_below(self, tmp_path, capsys):
        """Leaders that shrink their triangle about its centroid from scale
        1 at t = 0 to 0.1 at t = 1 s command sigma_min = 1 - 0.9 t: the
        report names the first tick below the threshold and exits 0."""
        leaders = {1: (0.0, 0.0), 2: (6.0, 0.0), 3: (0.0, 6.0)}
        doc = TINY.replace("duration: 0.2", "duration: 1.2")
        doc = doc[:doc.index("leader_trajectories:")] + "leader_trajectories:\n"
        for a, (x, y) in leaders.items():
            doc += (f"  {a}:\n    - {{time: 0.0, position: [{x}, {y}]}}\n"
                    f"    - {{time: 1.0, position: [{2 + 0.1 * (x - 2)}, "
                    f"{2 + 0.1 * (y - 2)}]}}\n")
        path = tmp_path / "shrink.yaml"
        path.write_text(doc)
        config = load_scenario(path)
        threshold = Simulation(config).epoch.threshold
        first = next(k for k in range(1201)
                     if 1 - 0.9 * k * config.dt < threshold)
        assert cli.main(["check", str(path)]) == 0
        lines = dict(line.split(": ", 1)
                     for line in capsys.readouterr().out.splitlines())
        assert lines["plan sigma_min"] == (
            f"0.1 against threshold {threshold:.6g}, first tick below: "
            f"{first} (t={first * config.dt:g})")


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

    def test_positions_without_filter_view_the_log(self, run_dir):
        """All agents kept: the values are the logged array, not a copy."""
        data = logio.load_outputs(run_dir)
        _, _, values = cli._series_positions(data, None)
        assert np.shares_memory(values, data["actual"])
        _, _, one = cli._series_positions(data, 4)
        np.testing.assert_array_equal(one, data["actual"][:, 3])

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


# The f-string series writers `contiform analyze` had before it had one
# row writer: the oracle for the bytes it writes.
def _oracle_positions(data, writer, agent_filter):
    ids = [int(a) for a in data["agent_ids"]]
    keep = [i for i, a in enumerate(ids)
            if agent_filter is None or a == agent_filter]
    header = ["time"]
    for i in keep:
        header.extend(f"{ids[i]}_{c}" for c in ("x", "y", "z"))
    writer.writerow(header)
    times, actual = data["times"], data["actual"]
    for r in range(times.shape[0]):
        row = [f"{times[r]:.10g}"]
        for i in keep:
            row.extend(f"{v:.10g}" for v in actual[r, i])
        writer.writerow(row)


def _oracle_sigma(data, writer, agent_filter):
    writer.writerow(["time", "sigma1", "sigma2", "sigma3"])
    times, sigma = data["times"], data["sigma"]
    for r in range(times.shape[0]):
        writer.writerow([f"{times[r]:.10g}"]
                        + [f"{v:.10g}" for v in sigma[r]])


def _oracle_weight_bounds(data, writer, agent_filter):
    ids = [int(a) for a in data["agent_ids"]]
    w = data["weights"]
    keep = [i for i, a in enumerate(ids)
            if (agent_filter is None or a == agent_filter)
            and np.isfinite(w[:, i, :]).any()]
    slots = w.shape[2]
    header = ["time"]
    for i in keep:
        for k in range(slots):
            header.extend((f"{ids[i]}_{k}_w", f"{ids[i]}_{k}_lo",
                           f"{ids[i]}_{k}_hi"))
    writer.writerow(header)
    times = data["times"]
    lo, hi = data["bounds_lo"], data["bounds_hi"]
    for r in range(times.shape[0]):
        row = [f"{times[r]:.10g}"]
        for i in keep:
            for k in range(slots):
                row.extend((f"{w[r, i, k]:.10g}", f"{lo[r, i, k]:.10g}",
                            f"{hi[r, i, k]:.10g}"))
        writer.writerow(row)


def _oracle_cem_paths(data, writer, agent_filter):
    ids = [int(a) for a in data["agent_ids"]]
    writer.writerow(["time", "agent", "x", "y", "z"])
    times, actual = data["times"], data["actual"]
    mode, health = data["mode"], data["health"]
    for r in np.flatnonzero(mode == 1):
        for i, a in enumerate(ids):
            if agent_filter is not None and a != agent_filter:
                continue
            if health[r, i] != 1:
                continue
            writer.writerow([f"{times[r]:.10g}", a]
                            + [f"{v:.10g}" for v in actual[r, i]])


ORACLE_SERIES = {"positions": _oracle_positions, "sigma": _oracle_sigma,
                 "weight-bounds": _oracle_weight_bounds,
                 "cem-paths": _oracle_cem_paths}


class TestAnalyzeBytes:
    @pytest.fixture(scope="class")
    def cem_dir(self, cem_log, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("analyze") / "run")
        logio.write_outputs(cem_log, out)
        return out

    @pytest.mark.parametrize("agent", [None, 4, 5],
                             ids=["all", "excluded", "healthy"])
    @pytest.mark.parametrize("series", sorted(ORACLE_SERIES))
    def test_bytes_match_the_oracle(self, cem_dir, tmp_path, series, agent):
        """A run with CEM rows, NaN weights and an excluded agent: each
        series, whole and filtered to an excluded and a healthy agent, has
        the oracle's bytes."""
        dest = tmp_path / "series.csv"
        argv = ["analyze", cem_dir, "--series", series, "--out", str(dest)]
        if agent is not None:
            argv += ["--agent", str(agent)]
        assert cli.main(argv) == 0
        expect = io.StringIO(newline="")
        ORACLE_SERIES[series](logio.load_outputs(cem_dir),
                              csv.writer(expect), agent)
        assert dest.read_bytes() == expect.getvalue().encode()

    @pytest.mark.parametrize("series", sorted(ORACLE_SERIES))
    def test_unknown_agent_is_an_input_error(self, cem_dir, tmp_path, capsys,
                                             series):
        """An id that is not in the run exits 2 with one line naming it,
        before any output is written."""
        dest = tmp_path / "series.csv"
        assert cli.main(["analyze", cem_dir, "--series", series,
                         "--agent", "99", "--out", str(dest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: agent 99 is not in the run")
        assert err.count("\n") == 1
        assert not dest.exists()

    @pytest.mark.parametrize("series, arrays", [
        ("positions", {"agent_ids", "times", "actual"}),
        ("sigma", {"times", "sigma"}),
        ("weight-bounds", {"agent_ids", "times", "weights", "bounds_lo",
                           "bounds_hi"}),
        ("cem-paths", {"agent_ids", "times", "mode", "health", "actual"}),
    ])
    def test_reads_only_the_arrays_it_exports(self, cem_dir, tmp_path,
                                              monkeypatch, series, arrays):
        """An export reads each array it needs from series.npz once, and
        no other."""
        read = []
        getitem = np.lib.npyio.NpzFile.__getitem__

        def recorded(npz, name):
            read.append(name)
            return getitem(npz, name)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recorded)
        argv = ["analyze", cem_dir, "--series", series,
                "--out", str(tmp_path / "series.csv")]
        assert cli.main(argv) == 0
        assert sorted(read) == sorted(arrays)


class TestCliExitCodes:
    def test_scenario_error_is_two(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text(TINY.replace("dt: 0.001\n", ""))
        rc = cli.main(["check", str(p)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("scenario error:")

    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_rho_out_of_range_is_two(self, command, tmp_path, capsys):
        p = tmp_path / "rho.yaml"
        p.write_text(TINY + "rho: 0.5\n")
        rc = cli.main([command, str(p), "--out", str(tmp_path / "run")]
                      if command == "simulate" else [command, str(p)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("scenario error: rho:")

    @pytest.mark.parametrize("n,agents", [
        (2, [[2.0 * i, 1.0 * i] for i in range(5)]),
        (3, [[float(i % 3), float(i // 3) + 0.1 * i, 0.0] for i in range(6)]),
    ], ids=["collinear-n2", "coplanar-n3"])
    def test_degenerate_formation_is_two(self, n, agents, tmp_path, capsys):
        p = tmp_path / "flat.yaml"
        p.write_text(f"n: {n}\ndt: 0.001\nduration: 0.01\nagents:\n" + "".join(
            f"  - {{id: {i + 1}, position: {pos}}}\n"
            for i, pos in enumerate(agents)))
        assert cli.main(["check", str(p)]) == 2
        assert capsys.readouterr().err == (
            "scenario error: network build failed: "
            "boundary simplexes are all degenerate\n")

    def test_float_n_is_two(self, tmp_path, capsys):
        p = tmp_path / "n.yaml"
        text = TEAM22.read_text().replace("\nn: 2\n", "\nn: 2.0\n")
        assert "\nn: 2.0\n" in text
        p.write_text(text)
        assert cli.main(["check", str(p)]) == 2
        assert capsys.readouterr().err == \
            "scenario error: n: must be 2 or 3, got 2.0\n"

    def test_missing_file_is_two(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.yaml")
        for command in ("simulate", "check"):
            assert cli.main([command, missing]) == 2
            err = capsys.readouterr().err
            assert err.startswith("input error: ") and missing in err
            assert err.count("\n") == 1

    def test_analyze_without_series_is_two(self, tmp_path, capsys):
        assert cli.main(["analyze", str(tmp_path), "--series", "sigma"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: no series.npz under ")
        assert str(tmp_path) in err and err.count("\n") == 1

    def test_analyze_of_a_mistyped_run_is_two(self, tiny_file, tmp_path,
                                              capsys, monkeypatch):
        """A run path that does not exist is an input error that names it,
        also in a directory that holds a run."""
        assert cli.main(["simulate", tiny_file, "--out", str(tmp_path)]) == 0
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert cli.main(["analyze", "typo_run", "--series", "sigma"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("input error: ")
        assert "typo_run" in captured.err

    @pytest.mark.parametrize("stride", ["0", "-3", "two"])
    def test_bad_stride_is_two_before_any_work(self, stride, tiny_file,
                                               tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_scenario", mock.Mock(
            side_effect=AssertionError("the run started")))
        with pytest.raises(SystemExit) as info:
            cli.main(["simulate", tiny_file, "--out", str(tmp_path / "run"),
                      "--stride", stride])
        assert info.value.code == 2
        assert "--stride: expected an integer of at least 1" in \
            capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_numeric_error_is_three(self, tmp_path, capsys):
        p = tmp_path / "unstable.yaml"
        p.write_text(TINY.replace("gain: 25.0", "gain: 1000000.0"))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["simulate", str(p), "--out",
                           str(tmp_path / "boom")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("numeric error:")


def test_only_the_cli_prints():
    """Library code reports through logging and typed events; print is
    the command line front end's alone."""
    calls = {}
    for path in sorted((REPO_ROOT / "src" / "contiform").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls[path.name] = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print"]
    assert calls.pop("cli.py")   # the check sees the calls there
    assert calls == dict.fromkeys(calls, [])
