"""Command line interface.

Subcommands:
  simulate <scenario> [--out DIR] [--format csv|json] [--stride N]
  check <scenario>
  analyze <log> --series positions|sigma|weight-bounds|cem-paths [--agent ID]

Exit codes: 0 success, 2 input errors (bad options, a missing or
unreadable file) and scenario errors (parse, schema, infeasible
formation), 3 numeric failures during a run.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import pathlib
import sys

import numpy as np

from . import logio
from .errors import ContiformError, ScenarioError
from .scenario import load_scenario
from .simulate import (HEALTH_OK, MARGIN_VIOLATED, MODE_CODE, _first_epoch,
                       run_scenario)
from .automaton import Mode


def _out_stream(path):
    return open(path, "w", newline="") if path else sys.stdout


def cmd_simulate(args):
    config = load_scenario(args.scenario)
    log = run_scenario(config)
    out_dir = args.out
    if out_dir is None:
        stem = os.path.splitext(os.path.basename(args.scenario))[0]
        out_dir = f"{stem}_out"
    paths = logio.write_outputs(log, out_dir, fmt=args.format,
                                stride=args.stride)
    with open(paths[-1]) as fh:   # meta.json, which holds the digest
        digest = json.load(fh)["digest"]
    ticks = log.times.shape[0] - 1
    final_mode = "HDM" if log.mode[-1] == MODE_CODE[Mode.HDM] else "CEM"
    print(f"scenario: {config.name}")
    print(f"ticks: {ticks} (dt={config.dt:g}, t_final={log.times[-1]:g})")
    print(f"events: {len(log.events)}")
    for e in log.events_of_kind("failure_ignored"):
        print(f"ignored: failure of agent {e.payload['agent']} at "
              f"t={e.payload['time']:g} is beyond the run's end")
    print(f"final mode: {final_mode}")
    print(f"digest: {digest}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_check(args):
    config = load_scenario(args.scenario)
    # the run's first epoch, as the simulation builds it
    ticks, epoch = _first_epoch(config, "network build failed")
    network = epoch.network
    delta, d_min, threshold = epoch.delta, epoch.d_min, epoch.threshold
    print(f"scenario: {config.name}")
    print(f"agents: {len(config.agent_ids)} (n={config.n})")
    print(f"leaders: {list(network.leaders)}")
    print(f"followers: {len(network.followers)}")
    print(f"boundary: {sorted(network.boundary)}")
    print(f"Xi_max: {network.Xi_max:.6g}")
    print(f"deviation bound: {delta:.6g} "
          f"(tolerances {tuple(float(v) for v in config.tolerances)})")
    print(f"d_min: {d_min:.6g}")
    print(f"sigma threshold: {threshold:.6g} "
          f"(vehicle radius {config.vehicle_radius:g})")
    print(f"containment: half-size {config.containment_half_size:g}, "
          f"norm {config.containment_norm}, "
          f"center policy {config.center_policy}")
    print(f"cem: u_inf {config.cem_u_inf:g}, theta_inf "
          f"{config.cem_theta_inf:g}, radius {config.cem_radius:g}, "
          f"v_phi {config.cem_v_phi:g}")
    for f in config.failures:
        extra = "" if f.velocity is None \
            else f", velocity {tuple(float(v) for v in f.velocity)}"
        print(f"failure: agent {f.agent_id} {f.kind} at t={f.time:g}{extra}")
    sigma_min, below, speed = _plan_report(epoch, ticks, config.dt)
    below = "none" if below is None else f"{below} (t={below * config.dt:g})"
    print(f"plan sigma_min: {sigma_min:.6g} against threshold "
          f"{threshold:.6g}, first tick below: {below}")
    separation, need = sigma_min * d_min - 2 * delta, 2 * config.vehicle_radius
    print(f"plan separation bound: {separation:.6g} m (sigma_min*d_min - "
          f"2*delta) against 2*radius {need:g} m, margin "
          f"{separation - need:.6g} m")
    print(f"plan leader speed: {speed:.6g} m/s, lag v/g "
          f"{speed / config.gain:.6g} m against deviation bound {delta:.6g} m")
    return 0


# ticks of the plan read at a time, so that check's memory does not grow
# with the run's duration
_PLAN_CHUNK = 4096


def _plan_report(epoch, ticks, dt):
    """The epoch's plan over the run's ticks: its smallest sigma, the first
    tick whose sigma is below the threshold (None if none) and the largest
    leader speed on the half-step grid."""
    sigma_min, below, speed = np.inf, None, 0.0
    for tick in range(0, max(ticks, 1), _PLAN_CHUNK):
        cmd, sigma, ok, _ = epoch.plan(tick, min(_PLAN_CHUNK, ticks - tick))
        sigma_min = np.minimum(sigma_min, sigma[:, -1].min())
        bad = np.flatnonzero(ok == MARGIN_VIOLATED)
        if below is None and bad.size:
            below = tick + int(bad[0])
        step = np.linalg.norm(np.diff(cmd, axis=1), axis=2)
        speed = max(speed, step.max(initial=0.0) / (0.5 * dt))
    return float(sigma_min), below, speed


def _kept(data, agent_filter):
    """Agent ids and the indices of those the filter keeps."""
    ids = [int(a) for a in data["agent_ids"]]
    return ids, [i for i, a in enumerate(ids)
                 if agent_filter is None or a == agent_filter]


def _series_positions(data, agent_filter):
    ids, keep = _kept(data, agent_filter)
    times, actual = data["times"], data["actual"]
    values = actual if agent_filter is None else actual[:, keep]  # all kept: a view
    return ([f"{ids[i]}_{c}" for i in keep for c in "xyz"], times,
            values.reshape(len(times), -1))


def _series_sigma(data, agent_filter):
    return ["sigma1", "sigma2", "sigma3"], data["times"], data["sigma"]


def _series_weight_bounds(data, agent_filter):
    ids, keep = _kept(data, agent_filter)
    w, times = data["weights"], data["times"]
    keep = [i for i in keep if np.isfinite(w[:, i]).any()]
    values = np.stack([data[k][:, keep]
                       for k in ("weights", "bounds_lo", "bounds_hi")], -1)
    return ([f"{ids[i]}_{k}_{part}" for i in keep for k in range(w.shape[2])
             for part in ("w", "lo", "hi")], times,
            values.reshape(len(times), -1))


def _series_cem_paths(data, agent_filter):
    ids, keep = _kept(data, agent_filter)
    keep = np.array(keep, dtype=int)
    rows, cols = np.nonzero((data["mode"] == MODE_CODE[Mode.CEM])[:, None]
                            & (data["health"][:, keep] == HEALTH_OK))
    agents = keep[cols]
    # the ids as floats: "%.10g" prints them as integers below 1e10
    return (["agent", "x", "y", "z"], data["times"][rows],
            np.column_stack((np.array(ids)[agents],
                             data["actual"][rows, agents])))


# series -> (data, agent filter) -> (header after "time", the rows' times
# (R,), their values (R, columns))
_SERIES = {
    "positions": _series_positions,
    "sigma": _series_sigma,
    "weight-bounds": _series_weight_bounds,
    "cem-paths": _series_cem_paths,
}


def cmd_analyze(args):
    data = logio.load_outputs(args.log)
    if args.agent is not None and args.agent not in data["agent_ids"]:
        print(f"input error: agent {args.agent} is not in the run under "
              f"{args.log}", file=sys.stderr)
        return 2
    header, times, values = _SERIES[args.series](data, args.agent)
    stream = _out_stream(args.out)
    try:
        writer = csv.writer(stream)
        writer.writerow(["time"] + header)
        writer.writerows(["%.10g" % v for v in (t, *row.tolist())]
                         for t, row in zip(times.tolist(), values))
    finally:
        if stream is not sys.stdout:
            stream.close()
    return 0


def _stride(text):
    """A --stride value: an integer of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {text!r}")
    return int(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="contiform",
        description="deterministic multi-agent coordination simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario file")
    p_sim.add_argument("scenario", type=pathlib.Path,
                       help="scenario YAML/JSON path")
    p_sim.add_argument("--out", default=None, help="output directory")
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.add_argument("--stride", type=_stride, default=1,
                       help="log row subsampling for trajectory export")
    p_sim.set_defaults(func=cmd_simulate)

    p_chk = sub.add_parser("check",
                           help="validate a scenario and report bounds")
    p_chk.add_argument("scenario", type=pathlib.Path,
                       help="scenario YAML/JSON path")
    p_chk.set_defaults(func=cmd_check)

    p_an = sub.add_parser("analyze", help="export a series from a run")
    p_an.add_argument("log", help="run output directory (or meta.json)")
    p_an.add_argument("--series", required=True, choices=sorted(_SERIES))
    p_an.add_argument("--agent", type=int, default=None,
                      help="restrict to one agent id")
    p_an.add_argument("--out", default=None, help="output CSV path")
    p_an.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ContiformError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
