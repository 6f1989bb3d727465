"""Writers and readers for simulation run artifacts.

A run directory holds:
  trajectory.csv   time, then per agent: x,y,z, xd,yd,zd, xc,yc,zc, health
  events.csv       time, kind, payload (JSON)
  meta.json        scenario identity, network epochs, log digest
  series.npz       every logged array at full precision

trajectory.csv is the human-facing export; series.npz is the exact record
and what `analyze` reads back.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .simulate import HEALTH_EXCLUDED, HEALTH_FLAGGED, HEALTH_OK, MODE_CODE, _log_arrays

_AGENT_COLS = ("x", "y", "z", "xd", "yd", "zd", "xc", "yc", "zc", "health")


# rows per formatted chunk of trajectory.csv
_CSV_CHUNK_ROWS = 256


def _write_trajectory_csv(path, log, stride):
    """trajectory.csv, written in row chunks straight from the log arrays.

    The bytes are those of np.savetxt(fmt="%.10g", delimiter=",") over the
    whole trajectory matrix, without building that matrix.  A column
    whose 64-bit patterns are the same in every row of a chunk is
    formatted once, as a literal in that chunk's row format; bit equality
    keeps -0.0 apart from 0.0 and lets an all-NaN column merge.
    """
    n = len(log.agent_ids)
    rows = log.times[::stride].shape[0]
    with open(path, "w") as fh:
        fh.write(",".join(_trajectory_header(log.agent_ids)) + "\n")
        for start in range(0, rows, _CSV_CHUNK_ROWS):
            sel = slice(start * stride, min(start + _CSV_CHUNK_ROWS, rows)
                        * stride, stride)
            times = log.times[sel]
            chunk = np.empty((len(times), 1 + 10 * n))
            chunk[:, 0] = times
            agents = chunk[:, 1:].reshape(-1, n, 10)
            agents[..., 0:3] = log.actual[sel]
            agents[..., 3:6] = log.local_desired[sel]
            agents[..., 6:9] = log.global_desired[sel]
            agents[..., 9] = log.health[sel]
            bits = chunk.view(np.int64)
            const = (bits == bits[0]).all(axis=0)
            row_fmt = ",".join("%.10g" % v if c else "%.10g" for v, c in
                               zip(chunk[0].tolist(), const)) + "\n"
            fh.write((row_fmt * len(chunk))
                     % tuple(chunk[:, ~const].ravel().tolist()))


def _json_values(array):
    """Nested lists of array, non-finite values as null (JSON has no NaN)."""
    return np.where(np.isfinite(array), array, None).tolist()


def _trajectory_header(agent_ids):
    cols = ["time"]
    for a in agent_ids:
        cols.extend(f"{a}_{c}" for c in _AGENT_COLS)
    return cols


def write_outputs(log, out_dir, fmt="csv", stride=1):
    """Write one run's artifacts; returns the list of paths written."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    if fmt == "csv":
        traj_path = os.path.join(out_dir, "trajectory.csv")
        _write_trajectory_csv(traj_path, log, stride)
        paths.append(traj_path)
        ev_path = os.path.join(out_dir, "events.csv")
        with open(ev_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "kind", "payload"])
            for e in log.events:
                writer.writerow([f"{e.time:.10g}", e.kind,
                                 json.dumps(e.payload, sort_keys=True)])
        paths.append(ev_path)
    else:
        traj_path = os.path.join(out_dir, "trajectory.json")
        doc = {"time": log.times[::stride].tolist(), "agents": {}}
        for i, a in enumerate(log.agent_ids):
            doc["agents"][str(a)] = {name: _json_values(
                getattr(log, name)[::stride, i]) for name in (
                "actual", "local_desired", "global_desired", "health")}
        with open(traj_path, "w") as fh:
            json.dump(doc, fh, allow_nan=False)
        paths.append(traj_path)
        ev_path = os.path.join(out_dir, "events.json")
        with open(ev_path, "w") as fh:
            json.dump([{"time": e.time, "kind": e.kind, "payload": e.payload}
                       for e in log.events], fh, indent=2, allow_nan=False)
        paths.append(ev_path)

    npz_path = os.path.join(out_dir, "series.npz")
    np.savez(npz_path, agent_ids=np.array(log.agent_ids), times=log.times,
             **{spec[0]: getattr(log, spec[0]) for spec in _log_arrays(0, 0)})
    paths.append(npz_path)

    meta_path = os.path.join(out_dir, "meta.json")
    with open(meta_path, "w") as fh:
        json.dump({
            "n": log.n, "dt": log.dt,
            "agent_ids": [int(a) for a in log.agent_ids],
            "rows": int(log.times.shape[0]),
            "stride": stride,
            "epochs": log.epochs,
            "digest": log.digest(),
            "mode_codes": {str(code): mode.value for mode, code in MODE_CODE.items()},
            "health_codes": {str(HEALTH_OK): "healthy", str(HEALTH_FLAGGED): "flagged",
                             str(HEALTH_EXCLUDED): "excluded"},
        }, fh, indent=2)
    paths.append(meta_path)
    return paths


class _RunData(dict):
    """meta.json's document under "meta" and the series.npz arrays read so
    far; indexing an array not read yet reads it, and only it, from disk."""

    def __init__(self, npz_path, meta):
        super().__init__(meta=meta)
        self._path = npz_path

    def __missing__(self, name):
        with np.load(self._path) as npz:
            self[name] = npz[name]
        return self[name]


def load_outputs(path):
    """Load a run directory (or its meta.json / series.npz) for analysis;
    each array is read from series.npz when it is first indexed."""
    base = path if os.path.isdir(path) else os.path.dirname(path) or "."
    npz_path = os.path.join(base, "series.npz")
    meta_path = os.path.join(base, "meta.json")
    if not os.path.exists(npz_path):
        raise FileNotFoundError(f"no series.npz under {base!r}")
    meta = {}
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            meta = json.load(fh)
    return _RunData(npz_path, meta)
