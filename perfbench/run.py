"""contiform benchmark: closed-loop runs of seeded workloads.

    python3 perfbench/run.py [--workload team22|evade22|netbuild] \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; without --workload the three workloads
run one after another.  Each workload runs in a fresh child process
(perfbench/worker.py) against the checkout's src/, with one BLAS thread.
--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the workload once untraced and once with every public function of the
layer modules wrapped, and prints the per-layer metrics.  Each workload's
JSON result is one line; the last line of standard output is the last
one.  Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
DEADLINE_S = 170.0
WORKLOADS = worker.WORKLOADS
FORMATIONS = tuple(name for name, _ in worker.FORMATIONS)


def run_child(workload, seed, seconds, trace, deadline):
    """Run worker.py once; returns its result dict and, if traced, spans."""
    os.makedirs(SCRATCH, exist_ok=True)
    out = tempfile.mkdtemp(dir=SCRATCH)
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out]
    try:
        # the child's output goes to stderr: stdout ends with our result
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            sys.exit(f"worker exited with code {proc.returncode}")
        with open(os.path.join(out, "result.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        spans = None
        if trace:
            with np.load(os.path.join(out, "spans.npz")) as data:
                spans = {k: data[k] for k in data.files}
        return result, spans
    except subprocess.TimeoutExpired:
        sys.exit("worker ran past the deadline")
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:   # another run still uses it
            pass


def median(values):
    return statistics.median(values) if values else 0.0


def phases(result):
    """The timings of one child's passes, reduced to one per phase.

    A slow stretch of the shared host only adds time, so compute_s is the
    sum of each piece's fastest time over the passes (worker.Splitter),
    setup_s the fastest of all set-ups (several per pass) and write_s the
    fastest write.  wall_s adds the three.
    """
    its = result["iterations"]
    setup = min((s for it in its for s in it["setup_s"]), default=0.0)
    compute = result["compute_s"]
    write = min((it["write_s"] for it in its), default=0.0)
    return {"setup_s": setup, "compute_s": compute, "write_s": write,
            "wall_s": setup + compute + write}


def host_scale(result):
    """Reference over measured time of the run's probes (worker.probe).

    Multiplying a time of the run by it gives the time at the host speed
    at which a probe takes worker.PROBE_REFERENCE_S.
    """
    return worker.PROBE_REFERENCE_S / result["calibration_s"]


def counts(result):
    """Deterministic counts read from the outputs of the first run."""
    c = result["iterations"][0].get("counts") if result["iterations"] else None
    if not c:
        return {"simulate.ticks.hdm": 0, "simulate.ticks.cem": 0,
                "anomaly.latency_s": 0.0, "anomaly.false_flags": 0,
                "cem.projections": 0, "cem.stagnations": 0}
    return {"simulate.ticks.hdm": c["ticks"]["hdm"],
            "simulate.ticks.cem": c["ticks"]["cem"],
            "anomaly.latency_s": c["latency_s"],
            "anomaly.false_flags": c["false_flags"],
            "cem.projections": c["projections"],
            "cem.stagnations": c["stagnations"]}


class Spans:
    """Aggregates over the spans one traced child wrote out."""

    def __init__(self, data):
        names = list(data["names"])
        self.name = np.array(names, dtype=object)[data["name_id"]] \
            if len(data["name_id"]) else np.array([], dtype=object)
        self.parent = data["parent"]
        self.dur = (data["end"] - data["start"]) / 1e9
        self.size = data["size"]
        has_parent = self.parent >= 0
        self.child_s = np.bincount(self.parent[has_parent],
                                   weights=self.dur[has_parent],
                                   minlength=len(self.dur))

    def of(self, name):
        return self.name == name

    def total(self, *names):
        return float(sum(self.dur[self.of(n)].sum() for n in names))

    def calls(self, name):
        return int(self.of(name).sum())

    def pct_us(self, mask, q):
        d = self.dur[mask]
        return float(np.percentile(d, q) * 1e6) if d.size else 0.0


def layer_metrics(spans):
    s = Spans(spans)
    detect = s.of("anomaly.evaluate_followers_batch")
    cem = s.of("cem.step_streamline_many")
    step = s.of("simulate.Simulation.step")
    cem_tick = np.zeros(len(s.dur), dtype=bool)
    cem_tick[s.parent[cem]] = True   # a CEM tick's step encloses the stream step
    build = s.of("refnet.build_reference_configuration")
    m = {
        "anomaly.detect_s": s.total("anomaly.evaluate_followers_batch"),
        "anomaly.detect_calls": s.calls("anomaly.evaluate_followers_batch"),
        "anomaly.detect_us.p50": s.pct_us(detect, 50),
        "anomaly.detect_us.p99": s.pct_us(detect, 99),
        "cem.step_s": s.total("cem.step_streamline_many"),
        "cem.step_calls": s.calls("cem.step_streamline_many"),
        "cem.step_us.p50": s.pct_us(cem, 50),
        "cem.step_us.p99": s.pct_us(cem, 99),
        "cem.enter_s": s.total("cem.build_flow_from_failures",
                               "cem.assign_stream_constants"),
        "automaton.transition_s": s.total("automaton.transition"),
        "automaton.transition_calls": s.calls("automaton.transition"),
        "simulate.step_s": s.total("simulate.Simulation.step"),
        "simulate.self_s": float((s.dur[step] - s.child_s[step]).sum()),
        "simulate.tick_us.hdm.p50": s.pct_us(step & ~cem_tick, 50),
        "simulate.tick_us.hdm.p99": s.pct_us(step & ~cem_tick, 99),
        "simulate.tick_us.cem.p50": s.pct_us(step & cem_tick, 50),
        "simulate.tick_us.cem.p99": s.pct_us(step & cem_tick, 99),
        "simulate.digest_s": s.total("simulate.TrajectoryLog.digest"),
        "refnet.build_s": s.total("refnet.build_reference_configuration"),
        "refnet.builds": s.calls("refnet.build_reference_configuration"),
        "refnet.classify_s": s.total("refnet.classify_boundary_interior"),
        "refnet.select_s": s.total("refnet.select_leaders"),
        "refnet.neighbors_s": s.total("refnet.find_in_neighbors"),
        "refnet.matrices_s": s.total("refnet.build_weight_matrices"),
        "geometry.lambda_batch_s": s.total("geometry.lambda_nd_batch"),
        "geometry.lambda_batch_rows":
            int(s.size[s.of("geometry.lambda_nd_batch")].sum()),
        "scenario.load_s": s.total("scenario.load_scenario"),
        "logio.write_s": s.total("logio.write_outputs"),
    }
    # netbuild builds its formations in FORMATIONS order, one build each
    build_s = s.dur[build]
    for k, name in enumerate(FORMATIONS):
        m[f"refnet.build_s.{name}"] = \
            float(build_s[k]) if build_s.size == len(FORMATIONS) else 0.0
    return m, int(step.sum()), int((step & cem_tick).sum())


def code_metrics():
    """Lines and public functions (module level and public methods)."""
    lines = public = 0
    pkg = os.path.join(SRC, "contiform")
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(pkg, fname), encoding="utf-8") as fh:
            text = fh.read()
        lines += text.count("\n")
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                public += 1
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                public += sum(1 for f in node.body
                              if isinstance(f, ast.FunctionDef)
                              and not f.name.startswith("_"))
    return {"code.src_lines": lines, "code.public_functions": public}


def info(name, value, unit):
    print(f"{name} = {value} {unit}")


def measure(workload, seed, seconds, trace, declared):
    """Measure one workload; prints information lines, returns the result."""
    deadline = time.monotonic() + DEADLINE_S
    plain, _ = run_child(workload, seed, 0.0 if trace else seconds, 0,
                         deadline)
    if plain["env"]["contiform"] != os.path.join(SRC, "contiform"):
        sys.exit(f"measured {plain['env']['contiform']}, not this checkout")
    attempted, failed = plain["attempted"], plain["failed"]
    times = phases(plain)
    its = plain["iterations"]
    info("workload", workload, "")
    info("seed", seed, "")
    for key in ("python", "numpy", "nproc", "blas_threads"):
        info(f"env.{key}", plain["env"][key], "")
    info("passes", len(its), "")
    if its and "digest" in its[0]:
        info("log_digest", its[0]["digest"], "(information only)")

    if trace:
        traced, spans = run_child(workload, seed, 0.0, 1, deadline)
        attempted += traced["attempted"]
        failed += traced["failed"]
        metrics, steps, cem_steps = layer_metrics(spans)
        c = counts(traced)
        if steps and (steps - cem_steps, cem_steps) != (
                c["simulate.ticks.hdm"], c["simulate.ticks.cem"]):
            failed += 1
            print("trace: step spans disagree with the logged modes",
                  file=sys.stderr)
        metrics.update(c)
        metrics["logio.bytes"] = sum(it["log_bytes"]
                                     for it in traced["iterations"])
        metrics["trace.overhead_s"] = \
            phases(traced)["compute_s"] - times["compute_s"]
        metrics.update(code_metrics())
    else:
        # every time below is at the reference host speed (host_scale)
        scale = host_scale(plain)
        info("host.calibration_s", plain["calibration_s"], "s")
        info("host.scale", scale, "")
        for name, value in times.items():
            info(f"measured.{name}", value, "s")
        times = {name: value * scale for name, value in times.items()}
        metrics = {"setup_s": times["setup_s"],
                   "compute_s": times["compute_s"],
                   "wall_s": times["wall_s"],
                   "peak_rss_mb": plain["peak_rss_mb"]}
        # the workload-specific names compute_s and wall_s stand for
        if its and "counts" in its[0]:
            ticks = sum(its[0]["counts"]["ticks"].values())
            info("ticks_per_s", ticks / times["compute_s"], "1/s")
            info("write_s", times["write_s"], "s")
            info("log_bytes", its[0]["log_bytes"], "B")
            for name, value in counts(plain).items():
                info(name, value, "s" if name.endswith("_s") else "count")
        elif its:
            info("check_s", times["compute_s"], "s")
            for name in FORMATIONS:
                info(f"check_s.{name}",
                     min(it["formation_s"][name] for it in its) * scale,
                     "s")
    info("fail_frac", failed / max(attempted, 1), "")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {d["name"]: {"value": metrics[d["name"]],
                                    "unit": d["unit"]} for d in declared}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload; all three in turn if omitted")
    p.add_argument("--seed", type=int, default=worker.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0,
                   help="repeat each workload's passes for this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "contiform", "__init__.py")):
        sys.exit(f"no contiform sources under {SRC}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    for workload in [args.workload] if args.workload else WORKLOADS:
        result = measure(workload, args.seed, args.seconds, args.trace,
                         declared)
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
