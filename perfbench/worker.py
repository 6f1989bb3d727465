"""One workload in a fresh process: make the inputs, run, check, report.

The parent (run.py) starts this file once per measurement with the
checkout's src/ on PYTHONPATH, reads the JSON result it writes to --out
and, for a traced run, the spans.  A run repeats the workload's whole
pipeline in passes until --seconds have gone and records every pass's
phase times; an untraced run also splits the compute phase (Splitter).
With --record it instead stores the default seed's outputs as the
reference the correctness gate compares against (only for an intended
change of the program's numbers).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback

import numpy as np
import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("team22", "evade22", "netbuild")
DEFAULT_SEED = 0
# Each pass sets up SETUP_REPEATS times and runs the last build, so that
# a run holds several set-up times per pass for run.py to take the fastest.
SETUP_REPEATS = 3
POSITION_TOL = 1e-9   # m, final positions against the reference
WEIGHT_TOL = 1e-9

# team22: the shipped scenario cut to its tracking phase, before the
# t = 100 s freeze, so that a pass takes seconds and a run holds several.
TEAM22_DURATION = 6.0   # s

# evade22: the drifting agent is an interior follower on the team's
# upwind (west) side, so that it falls behind the eastward CEM flow and
# every seed reaches the exclusion and the network rebuild (at 3.87 to
# 4.04 s of the 5.5 s run on seeds 0-11).  The narrow heading and speed
# ranges keep the CEM tick count, and with it the work, within 3% across
# seeds.
EVADE_AGENTS = (8, 13)
EVADE_HEADING_JITTER = math.radians(10.0)
EVADE_SPEED = (2.9, 3.1)   # m/s
EVADE_FAILURE_TIME, EVADE_DURATION, EVADE_HALF_SIZE = 0.5, 5.5, 55.0

# netbuild: jittered planar grids and 3-D lattices, spacing 10 m.  The
# jitter is drawn once, from JITTER_SEED; the run's seed moves each
# formation by a random rotation and translation and relabels its agents.
# Every number the program receives changes with the seed, but the search
# the network build makes, which the jitter decides, does not: the work
# and memory of a run do not depend on the seed (with jitter drawn per
# seed, the boundary count and the peak memory of a 10 x 10 grid did).
# The build's cost grows steeply with the agent count (a 10 x 10 grid
# takes 3.3 s, a 4 x 3 x 3 lattice 1.8 s); larger formations would make a
# pass too long for a run to hold the passes that steady its timing (see
# Splitter).
FORMATIONS = (("grid49", (7, 7)), ("grid64", (8, 8)),
              ("lattice27", (3, 3, 3)))
SPACING, JITTER, JITTER_SEED = 10.0, 1.5, 0


# -- inputs -----------------------------------------------------------------

def shipped_team22():
    with open(os.path.join(HERE, "team22.yaml"), encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def team22_text(seed):
    """The shipped team22 scenario's first 6 s; the seed is ignored."""
    doc = shipped_team22()
    doc["duration"] = TEAM22_DURATION
    doc["failures"] = []   # the freeze at t = 100 s lies past the cut
    return yaml.safe_dump(doc, sort_keys=False)


def evade22_text(seed):
    """team22 made CEM-heavy: 5.5 s, containment 55 m, a drift at 0.5 s."""
    rng = np.random.default_rng(seed)
    doc = shipped_team22()
    ref = {a["id"]: np.array(a["position"], dtype=float) for a in doc["agents"]}
    centroid = np.mean(list(ref.values()), axis=0)
    agent = int(rng.choice(EVADE_AGENTS))
    out = ref[agent] - centroid
    heading = math.atan2(out[1], out[0]) + rng.uniform(-EVADE_HEADING_JITTER,
                                                       EVADE_HEADING_JITTER)
    speed = rng.uniform(*EVADE_SPEED)
    doc["name"] = "evade22"
    doc["duration"] = EVADE_DURATION
    doc["containment"]["half_size"] = EVADE_HALF_SIZE
    doc["failures"] = [{
        "agent": agent, "time": EVADE_FAILURE_TIME, "kind": "drift",
        "velocity": [round(speed * math.cos(heading), 9),
                     round(speed * math.sin(heading), 9)]}]
    return yaml.safe_dump(doc, sort_keys=False)


def _rotation(rng, dim):
    if dim == 2:
        a = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([[math.cos(a), -math.sin(a)],
                         [math.sin(a), math.cos(a)]])
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else q[:, ::-1]


def netbuild_texts(seed):
    """(name, document) per jittered formation; positions only."""
    jitter = np.random.default_rng(JITTER_SEED)
    rng = np.random.default_rng(seed)
    docs = []
    for name, shape in FORMATIONS:
        axes = np.meshgrid(*[np.arange(k) for k in shape], indexing="ij")
        pts = np.stack([a.ravel() for a in axes], axis=1) * SPACING
        pts = pts + jitter.uniform(-JITTER, JITTER, pts.shape)
        pts = pts @ _rotation(rng, len(shape)).T \
            + rng.uniform(-100.0, 100.0, len(shape))
        ids = rng.permutation(len(pts)) + 1
        doc = {"name": name, "n": len(shape), "dt": 0.01, "duration": 1.0,
               "agents": [{"id": int(i), "position": [round(float(v), 6)
                                                      for v in p]}
                          for i, p in zip(ids, pts)]}
        docs.append((name, yaml.safe_dump(doc, sort_keys=False)))
    return docs


# -- output summaries --------------------------------------------------------

def sim_summary(log, config):
    """Counts and reference fields of one simulation's outputs."""
    dt = log.dt
    stepped = log.mode[:-1]
    ids = list(log.agent_ids)
    flagged_any = (log.health == 0).any(axis=0)
    failed = {f.agent_id for f in config.failures}
    latencies = []
    for e in log.events_of_kind("failure_active"):
        col = ids.index(e.payload["agent"])
        rows = np.flatnonzero(log.health[:, col] == 0)
        latencies.append(rows[0] * dt - e.time if rows.size else math.inf)
    return {
        "ticks": {"hdm": int(np.sum(stepped == 0)),
                  "cem": int(np.sum(stepped == 1))},
        "latency_s": max(latencies) if latencies else 0.0,
        "false_flags": int(sum(1 for i, a in enumerate(ids)
                               if flagged_any[i] and a not in failed)),
        "projections": len(log.events_of_kind("disk_projection")),
        "stagnations": len(log.events_of_kind("stagnation")),
        "events": [[int(round(e.time / dt)), e.kind, e.payload]
                   for e in log.events],
        "final_positions": log.actual[-1].tolist(),
    }


def network_summary(network, config):
    pos = {a: config.ref_positions[i] for i, a in enumerate(config.agent_ids)}
    return {
        "n": config.n,
        "positions": {str(a): p.tolist() for a, p in pos.items()},
        "leaders": [int(a) for a in network.leaders],
        "in_neighbors": {str(f): [int(a) for a in nbrs]
                         for f, nbrs in network.in_neighbors.items()},
        "weights": {str(f): [network.weights[(f, a)] for a in nbrs]
                    for f, nbrs in network.in_neighbors.items()},
    }


# -- correctness ------------------------------------------------------------

def _same(a, b):
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def check_sim(summary, total_ticks, injected, ref):
    """Problems with one simulation's outputs; an empty list is a pass."""
    problems = []
    ticks = summary["ticks"]
    if ticks["hdm"] + ticks["cem"] != total_ticks:
        problems.append(f"ticks {ticks} do not add up to {total_ticks}")
    if not np.all(np.isfinite(summary["final_positions"])):
        problems.append("non-finite final positions")
    if injected and not (math.isfinite(summary["latency_s"])
                         and summary["latency_s"] > 0):
        problems.append(f"injected failure not detected "
                        f"(latency {summary['latency_s']})")
    if ref is None:
        return problems
    if ticks != ref["ticks"]:
        problems.append(f"ticks per mode {ticks} != reference {ref['ticks']}")
    got = [e[:2] for e in summary["events"]]
    want = [e[:2] for e in ref["events"]]
    if got != want:
        problems.append(f"event ticks/kinds {got} != reference {want}")
    elif not _same([e[2] for e in summary["events"]],
                   [e[2] for e in ref["events"]]):
        problems.append("event payloads differ from the reference")
    err = np.max(np.abs(np.array(summary["final_positions"])
                        - np.array(ref["final_positions"])))
    if not err <= POSITION_TOL:
        problems.append(f"final positions off the reference by {err:.3e} m")
    return problems


def check_network(name, summary, delta, threshold, ref):
    """Structural checks for any seed, exact comparison on the default."""
    problems = []
    n = summary["n"]
    pos = {a: np.array(p) for a, p in summary["positions"].items()}
    leaders = summary["leaders"]
    if len(set(leaders)) != n + 1:
        problems.append(f"{name}: {len(set(leaders))} distinct leaders")
    followers = set(pos) - {str(a) for a in leaders}
    if set(summary["in_neighbors"]) != followers:
        problems.append(f"{name}: in-neighbor keys are not the followers")
    for f, nbrs in summary["in_neighbors"].items():
        w = np.array(summary["weights"][f])
        if len(nbrs) != n + 1 or abs(w.sum() - 1.0) > WEIGHT_TOL:
            problems.append(f"{name}: follower {f} has a bad weight row")
            continue
        recon = w @ np.stack([pos[str(a)] for a in nbrs])
        err = np.max(np.abs(recon - pos[f]))
        if err > 1e-9 * (1.0 + np.max(np.abs(pos[f]))):
            problems.append(f"{name}: weights of {f} miss its position "
                            f"by {err:.3e}")
    if not (math.isfinite(delta) and delta > 0 and math.isfinite(threshold)):
        problems.append(f"{name}: bounds delta={delta} threshold={threshold}")
    if ref is None:
        return problems
    if leaders != ref["leaders"] or summary["in_neighbors"] != ref["in_neighbors"]:
        problems.append(f"{name}: leaders or in-neighbors differ from reference")
    elif not all(np.allclose(summary["weights"][f], ref["weights"][f],
                             rtol=0.0, atol=WEIGHT_TOL) for f in ref["weights"]):
        problems.append(f"{name}: weights differ from reference")
    return problems


# -- split timing -----------------------------------------------------------

# The function whose calls split a workload's compute phase into pieces:
# one piece per simulation tick, and a few milliseconds of the network
# build per piece.
MARKERS = {"team22": ("simulate", "Simulation.step"),
           "evade22": ("simulate", "Simulation.step"),
           "netbuild": ("refnet", "lambda_nd_batch")}


class Splitter:
    """Splits a timed phase at the entry and exit of every marked call.

    A pass of a workload makes the same calls as every other pass of the
    run, so the pieces of its phase between and within the calls are the
    same work each pass.  The host's speed swings by a third and more over
    stretches of seconds, but within a slow stretch a few milliseconds of
    work still often run at full speed: each piece's fastest time over the
    passes is steadier than any whole pass (`fastest`).

    Before each marked call the wrapper also times `probe`, a fixed piece
    of work that does not touch contiform, and takes its time out of the
    piece it ran in; the probes measure the host's speed at the moments
    the program ran (see host speed below).
    """

    def __init__(self):
        self.marks, self.probes = [], []

    def mark(self, owner, attr):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            t = time.perf_counter()
            probe()
            self.probes.append(time.perf_counter() - t)
            self.marks.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.marks.append(time.perf_counter())
        setattr(owner, attr, marked)

    def run(self, fn):
        """Call fn; returns its result, the durations of its pieces and
        those of the probes."""
        self.marks, self.probes = [], []
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        pieces = np.diff([t0, *self.marks, t1])
        probes = np.array(self.probes)
        # the piece before each marked call held its probe
        pieces[0:2 * len(probes):2] -= probes
        return out, pieces, probes


def install_marker(workload, splitter):
    module, path = MARKERS[workload]
    owner = importlib.import_module(f"contiform.{module}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    splitter.mark(owner, attr)


# -- host speed -------------------------------------------------------------

# The fastest pieces still drift with the host over minutes: ten runs of a
# workload, each the sum of its pieces' fastest times, spread by 10% to
# 17% of their median, and one run's groups of six passes by up to 40%.
# The probes' fastest times drift with the program's, so run.py scales the
# run's times by PROBE_REFERENCE_S over the mean of the probes' fastest
# times (calibration_s).
PROBE_REFERENCE_S = 18.5e-6   # a probe at full speed on a 2.1 GHz Xeon
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((20, 20))


def probe():
    """Python arithmetic and a small matrix product, about 20 us."""
    acc = 0.0
    for i in range(200):
        acc += (i * 0.5) % 7
    _PROBE_MATRIX @ _PROBE_MATRIX
    return acc


def fastest(passes):
    """Sum of each piece's fastest time; the fastest total if the passes
    were not split alike."""
    if len({len(p) for p in passes}) == 1:
        return float(np.min(np.stack(passes), axis=0).sum())
    return min(float(p.sum()) for p in passes)


# -- workloads --------------------------------------------------------------

def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _repeat_setup(fn, repeats):
    """Run set-up `repeats` times; keep the last result, all times."""
    times, out = [], None
    for _ in range(repeats):
        out = None   # free the previous build before timing the next
        out, dt = _timed(fn)
        times.append(dt)
    return out, times


def run_sim(text, work, ref, repeats, splitter):
    from contiform import logio, scenario, simulate

    path = os.path.join(work, "scenario.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

    def setup():
        return simulate.Simulation(scenario.load_scenario(path))

    sim, setup_s = _repeat_setup(setup, repeats)
    total_ticks, config = sim.total_ticks, sim.config
    log, pieces, probes = splitter.run(sim.run)
    out_dir = tempfile.mkdtemp(dir=work)
    t0 = time.perf_counter()
    paths = logio.write_outputs(log, out_dir)
    digest = log.digest()
    write_s = time.perf_counter() - t0
    log_bytes = sum(os.path.getsize(p) for p in paths)
    shutil.rmtree(out_dir)
    summary = sim_summary(log, config)
    problems = check_sim(summary, total_ticks, bool(config.failures), ref)
    counts = {k: summary[k] for k in ("ticks", "latency_s", "false_flags",
                                      "projections", "stagnations")}
    return {"setup_s": setup_s, "pieces": pieces, "probes": probes,
            "compute_s": float(pieces.sum()), "write_s": write_s,
            "log_bytes": log_bytes, "digest": digest, "counts": counts,
            "attempted": 1, "failed": int(bool(problems)),
            "problems": problems, "summary": summary}


def run_netbuild(docs, work, ref, repeats, splitter):
    from contiform import hdm, refnet, scenario

    paths = []
    for name, text in docs:
        paths.append(os.path.join(work, f"{name}.yaml"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write(text)
    def setup():
        return [scenario.load_scenario(p) for p in paths]

    def check(config):
        """The calls `contiform check` makes."""
        positions = {a: config.ref_positions[i]
                     for i, a in enumerate(config.agent_ids)}
        network = refnet.build_reference_configuration(
            positions, n=config.n, rho=config.rho, xi=config.xi)
        _, delta = refnet.deviation_bound(network.D, network.B,
                                          *config.tolerances)
        threshold, _ = hdm.collision_safety_margin(
            np.ones(3), delta, config.vehicle_radius, network.d_min)
        return network, delta, threshold

    configs, setup_s = _repeat_setup(setup, repeats)
    problems, summaries, formation_s, failed = [], {}, {}, 0
    pieces, probes = [], []
    for (name, _), config in zip(docs, configs):
        (network, delta, threshold), split, probed = splitter.run(
            lambda: check(config))
        pieces.append(split)
        probes.append(probed)
        formation_s[name] = float(split.sum())
        summaries[name] = network_summary(network, config)
        found = check_network(name, summaries[name], delta, threshold,
                              ref and ref[name])
        problems += found
        failed += int(bool(found))
    pieces = np.concatenate(pieces)
    return {"setup_s": setup_s, "pieces": pieces,
            "probes": np.concatenate(probes),
            "compute_s": float(pieces.sum()), "write_s": 0.0,
            "log_bytes": 0, "formation_s": formation_s,
            "attempted": len(docs), "failed": failed, "problems": problems,
            "summary": summaries}


def load_references():
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def make_runner(workload, seed, repeats, refs, splitter):
    # team22 ignores the seed, so its reference holds for every seed
    ref = refs.get(workload) if seed == DEFAULT_SEED or workload == "team22" \
        else None
    if workload == "netbuild":
        docs = netbuild_texts(seed)
        return lambda work: run_netbuild(docs, work, ref, repeats, splitter)
    text = {"team22": team22_text, "evade22": evade22_text}[workload](seed)
    return lambda work: run_sim(text, work, ref, repeats, splitter)


def blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return int(os.environ[var])
    return os.cpu_count()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="run passes while the next one, as long as the "
                        "last, ends within this many seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="directory for the result")
    p.add_argument("--record", action="store_true",
                   help="store the default seed's outputs as the reference")
    args = p.parse_args(argv)

    import contiform
    splitter = Splitter()
    if args.trace:   # a traced phase stays whole
        import tracer
        spans = tracer.Tracer()
        tracer.install(spans)
    else:
        install_marker(args.workload, splitter)
    # a traced run sets up once, so its spans describe one pipeline run
    runner = make_runner(args.workload, args.seed,
                         1 if args.trace else SETUP_REPEATS,
                         {} if args.record else load_references(), splitter)
    iterations, attempted, failed = [], 0, 0
    start = last = time.perf_counter()
    while not iterations or 2 * time.perf_counter() - last - start \
            <= args.seconds:
        last = time.perf_counter()
        work = tempfile.mkdtemp(dir=args.out)
        try:
            it = runner(work)
        except Exception:   # a raising run is a failed run, not a crash
            traceback.print_exc()
            attempted, failed = attempted + 1, failed + 1
            break
        finally:
            shutil.rmtree(work)
        attempted += it["attempted"]
        failed += it["failed"]
        for problem in it["problems"]:
            print(f"correctness: {problem}", file=sys.stderr)
        iterations.append(it)
    if args.trace:
        spans.save(os.path.join(args.out, "spans.npz"))
    if args.record:
        if args.seed != DEFAULT_SEED or failed:
            sys.exit("record needs the default seed and a run that passes "
                     "the structural checks")
        refs = load_references()
        summary = iterations[0]["summary"]
        if args.workload == "netbuild":
            summary = {name: {k: net[k] for k in
                              ("leaders", "in_neighbors", "weights")}
                       for name, net in summary.items()}
        else:
            summary = {k: summary[k] for k in
                       ("ticks", "events", "final_positions")}
            summary["digest"] = iterations[0]["digest"]   # information only
        refs[args.workload] = summary
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    compute_s = fastest([it["pieces"] for it in iterations]) \
        if iterations else 0.0
    probes = [it["probes"] for it in iterations]
    calibration_s = fastest(probes) / len(probes[0]) \
        if probes and len(probes[0]) else PROBE_REFERENCE_S
    for it in iterations:
        del it["summary"], it["problems"], it["pieces"], it["probes"]
    result = {
        "workload": args.workload, "seed": args.seed,
        "attempted": attempted, "failed": failed, "iterations": iterations,
        "compute_s": compute_s, "calibration_s": calibration_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "env": {"python": platform.python_version(),
                "numpy": np.__version__, "nproc": os.cpu_count(),
                "blas_threads": blas_threads(),
                "contiform": os.path.dirname(contiform.__file__)},
    }
    with open(os.path.join(args.out, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
