"""Command line interface.

Subcommands:
  simulate <scenario> [--out DIR] [--format csv|json] [--stride N]
  check <scenario>
  analyze <log> --series positions|sigma|weight-bounds|cem-paths [--agent ID]

Exit codes: 0 success, 2 scenario errors (parse, schema, infeasible
formation), 3 numeric failures during a run.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import logio, refnet
from .errors import (ConnectivityError, ContiformError, DegeneracyError,
                     NetworkError, ScenarioError, SelectionError)
from .scenario import load_scenario
from .simulate import MODE_CODE, epoch_bounds, run_scenario
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
    ticks = log.times.shape[0] - 1
    final_mode = "HDM" if log.mode[-1] == MODE_CODE[Mode.HDM] else "CEM"
    print(f"scenario: {config.name}")
    print(f"ticks: {ticks} (dt={config.dt:g}, t_final={log.times[-1]:g})")
    print(f"events: {len(log.events)}")
    print(f"final mode: {final_mode}")
    print(f"digest: {log.digest()}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_check(args):
    config = load_scenario(args.scenario)
    positions = {a: config.ref_positions[i]
                 for i, a in enumerate(config.agent_ids)}
    try:
        network = refnet.build_reference_configuration(
            positions, n=config.n, rho=config.rho, xi=config.xi,
            leader_override=list(config.leader_override)
            if config.leader_override else None)
    except (DegeneracyError, SelectionError, ConnectivityError,
            NetworkError) as exc:
        raise ScenarioError(f"network build failed: {exc}") from exc
    delta, d_min, threshold = epoch_bounds(network, config)
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
    return 0


def _series_positions(data, writer, agent_filter):
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


def _series_sigma(data, writer, agent_filter):
    writer.writerow(["time", "sigma1", "sigma2", "sigma3"])
    times, sigma = data["times"], data["sigma"]
    for r in range(times.shape[0]):
        writer.writerow([f"{times[r]:.10g}"]
                        + [f"{v:.10g}" for v in sigma[r]])


def _series_weight_bounds(data, writer, agent_filter):
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


def _series_cem_paths(data, writer, agent_filter):
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


_SERIES = {
    "positions": _series_positions,
    "sigma": _series_sigma,
    "weight-bounds": _series_weight_bounds,
    "cem-paths": _series_cem_paths,
}


def cmd_analyze(args):
    data = logio.load_outputs(args.log)
    stream = _out_stream(args.out)
    try:
        _SERIES[args.series](data, csv.writer(stream), args.agent)
    finally:
        if stream is not sys.stdout:
            stream.close()
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="contiform",
        description="deterministic multi-agent coordination simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a scenario file")
    p_sim.add_argument("scenario", help="scenario YAML/JSON path")
    p_sim.add_argument("--out", default=None, help="output directory")
    p_sim.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sim.add_argument("--stride", type=int, default=1,
                       help="log row subsampling for trajectory export")
    p_sim.set_defaults(func=cmd_simulate)

    p_chk = sub.add_parser("check",
                           help="validate a scenario and report bounds")
    p_chk.add_argument("scenario", help="scenario YAML/JSON path")
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
    except ContiformError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
