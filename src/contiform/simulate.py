"""Fixed-step simulation loop: dynamics, detection, supervision, logging.

Every agent is a single integrator tracking its local desired position,
r' = g (r_d - r), integrated per tick with the classical 4th-order scheme.
Within one tick every computation reads the previous tick's position
snapshot: follower desired positions are frozen over the tick while leader
commands are sampled at the three integration stage times.  That RK4 step
has a closed form, so a team tick is the affine map r+ = M r + U, with M
built once per network epoch.  The loop is strictly sequential and free of
randomness, so identical configurations produce bit-identical logs.

Per tick, in order: (1) desired positions per mode, (2) the affine team
step (in CEM, each healthy agent's r+ = a0 r + (1 - a0) c toward its
target c), (3) failure kinematics override, (4) the anomaly verdict (HDM
only; the flagged set is frozen while CEM is active), (5) supervisor
transition on the containment center, the healthy agents' mean position
(in CEM under the frozen policy, that at entry), (6) one state row of the
log (positions, health, mode, a CEM row's targets): it derives the rest.

Both modes run one protocol: build a block from the live state, write its
state rows ahead, commit one tick per step(), and let a supervisor action
rewrite the committed row.  _commit alone advances the clock, makes a
tick's positions live, logs its events and runs (5), in HDM only with
anyone flagged: it enters CEM for a flagged agent inside the containment
domain, or excludes the flagged agents once all are outside it (on CEM
exit, or at once in HDM), rebuilds the network and rewrites the row as
the new epoch's first.  Both builders read the failed agents'
rows (3) from one run-level chunk of at most `lookahead_ticks` ticks, cut
at the run end and before the next activation; every HDM block starts a
new one, and CEM ticks read on through it.  A block is dropped, and its
uncommitted rows unwritten, when the state it was built from changes: a
failure added (inject_failure), or positions, mode or flagged set edited
between steps; the live positions are the block's committed row, and
the bytes kept at the commit tell an edit.  The engine writes log rows
but never reads them.

An HDM block: until the detector, which reads only the actual positions,
flags someone, neither detection nor logging feeds back into the
dynamics.  So the block advances through the chunk's ticks by (2)-(3),
straight into one (K + 1, N, 3) array that opens with the tick-start
positions, with the leader commands from one evaluation of the epoch's
plan, and evaluates them in one vectorized pass: the detector's verdicts
over all K x F follower rows, and the leader lag and its
leader_deviation events.  Under a homogeneous deformation the transient
weights equal the static ones, so each follower's offset from the point
its static weights pick out among its in-neighbors is a linear function
of the positions: one product of the block with the epoch's map gives
every row's offset and simplex edges, and anomaly's linear test decides
from them the rows it can, all of a quiet block's.  The detector runs
only on the ticks with a row it fails, so every verdict is the kernel's
(the log derives the weights and bounds on read).  It keeps the ticks up to and including
the first one on which anyone is flagged.  Finiteness and the detector
verdict are each one test over the whole block; only a failed test looks
for its tick (the first non-finite tick ends the block, and the next
block raises on it).

A CEM block is one tick: one cem.step_streamline_many call (1) on the
episode's targets, the healthy agents' (H, 3) in healthy_idx order, with
its stagnation and disk-projection events; its positions are tested for
finiteness once.  The episode holds the flow past the flagged agents,
the stream constants, the targets, the entry center and the latch.
"""
from __future__ import annotations

import hashlib
import json
import math
import operator
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import anomaly, cem, hdm, refnet
from .automaton import Event, Mode, transition
from .errors import (DegeneracyError, NetworkError, NumericError,
                     ScenarioError, SelectionError)
from .scenario import ScenarioConfig, _failure_spec, load_scenario

MODE_CODE = {Mode.HDM: 0, Mode.CEM: 1}
HEALTH_OK, HEALTH_FLAGGED, HEALTH_EXCLUDED = 1, 0, -1

# margin_ok codes: 1 satisfied, 0 violated, -1 not applicable (CEM)
MARGIN_OK, MARGIN_VIOLATED, MARGIN_NA = 1, 0, -1

# the log arrays _derive computes from those the engine writes
_DERIVED = ("local_desired", "global_desired", "weights", "bounds_lo",
            "bounds_hi", "sigma", "margin_ok", "center")


@dataclass
class TrajectoryLog:
    """Complete per-tick record of one run.

    Row k holds the state at time k * dt; row 0 is the initial state.
    Arrays indexed [tick, agent] follow the scenario's agent order.  The
    simulation writes only state rows; mid-run, those past the current
    tick up to the end of its look-ahead block (which holds its own
    positions) are uncommitted, and the later ones hold an unwritten row.
    The other series (_DERIVED, shaped as _log_arrays says; weights are
    the transient weights, NaN if n/a, sigma the deformation's singular
    values) are derived from the written rows on read (_derive) and kept
    until the next write, and epochs lists each network epoch's meta.
    """

    agent_ids: tuple
    n: int
    dt: float
    times: np.ndarray           # (T+1,)
    actual: np.ndarray          # (T+1, N, 3)
    health: np.ndarray          # (T+1, N) int8
    mode: np.ndarray            # (T+1,) int8
    events: list = field(default_factory=list)
    # shared by every copy: each epoch's _Epoch, each CEM row's targets, the
    # written rows' count, the derived series (None since the last write)
    _written: SimpleNamespace = field(repr=False, default_factory=lambda: (
        SimpleNamespace(epochs=[], targets={}, end=0, series=None)))

    epochs = property(lambda log: [ep.meta() for ep in log._written.epochs])
    local_desired, global_desired, weights, bounds_lo, bounds_hi, sigma, \
        margin_ok, center = (property(lambda log, name=name:
                                      _derive(log)[name]) for name in _DERIVED)

    def _write(self, row0, actual, health, mode, targets=None, epoch=None):
        """Write the state rows from row0 on, one per actual (K, N, 3) row;
        health and mode broadcast over them.  A CEM row keeps its targets,
        and a network epoch's first row its _Epoch."""
        rows = slice(row0, row0 + len(actual))
        self.actual[rows], self.health[rows], self.mode[rows] = \
            actual, health, mode
        w = self._written
        if targets is not None:
            w.targets[row0] = targets
        if epoch is not None:
            w.epochs.append(epoch)
        w.end, w.series = max(w.end, rows.stop), None

    def _unwrite(self, end):
        """Reset the written rows from end on to their unwritten values."""
        w = self._written
        for name, _, _, value in _log_arrays(0, 0):
            if name not in _DERIVED:
                getattr(self, name)[end:w.end] = value
        w.end, w.series = end, None

    def digest(self):
        """SHA-256 over every logged array and the serialized events."""
        h = hashlib.sha256()
        for name in ("times", *(spec[0] for spec in _log_arrays(0, 0))):
            h.update(np.ascontiguousarray(getattr(self, name)))
        h.update(json.dumps(
            [[e.time, e.kind, e.payload] for e in self.events],
            sort_keys=True).encode())
        return h.hexdigest()

    def events_of_kind(self, kind):
        return [e for e in self.events if e.kind == kind]

    def mode_changes(self):
        return self.events_of_kind("mode_change")


def _log_arrays(agents, slots):
    """(name, row shape, dtype, value of an unwritten row) of each per-tick
    log array but times, for `agents` agents and `slots` weights each."""
    return (("actual", (agents, 3), np.float64, 0.0),
            ("local_desired", (agents, 3), np.float64, np.nan),
            ("global_desired", (agents, 3), np.float64, np.nan),
            ("weights", (agents, slots), np.float64, np.nan),
            ("bounds_lo", (agents, slots), np.float64, np.nan),
            ("bounds_hi", (agents, slots), np.float64, np.nan),
            ("health", (agents,), np.int8, HEALTH_OK),
            ("mode", (), np.int8, MODE_CODE[Mode.HDM]),
            ("center", (3,), np.float64, 0.0),
            ("sigma", (3,), np.float64, np.nan),
            ("margin_ok", (), np.int8, MARGIN_NA))


class _Epoch:
    """What one reference-network build fixes until the next build.

    The network; Delta (refnet._delta on its Xi_max), d_min (the scenario's
    override, else the network's) and the collision-safety threshold on
    the commanded deformation's smallest sigma; the center policy; index
    caches; the team matrix; the linear test's map, whose (n+1) F rows
    give each follower's offset e and its simplex's n edges from the N
    agents' positions (verdict); the leaders' plan, anchored at the
    build's positions and evaluated on demand by plan(); and the leaders
    whose deviation has been logged.  Nothing here grows with the run or
    the block: a block reads the followers' static weights, a row each,
    and the leaders', followers' and network's agent columns, each a
    slice when its agents are consecutive (see _columns).
    """

    def __init__(self, network, config: ScenarioConfig, positions, tick):
        idx = {a: i for i, a in enumerate(config.agent_ids)}
        self.network = network
        self.start_tick = tick
        self.delta = refnet._delta(network.Xi_max, *config.tolerances)
        self.d_min = network.d_min if config.d_min_override is None \
            else config.d_min_override
        self.threshold, _ = hdm.collision_safety_margin(
            np.ones(3), self.delta, config.vehicle_radius, self.d_min)
        self.frozen_center = config.center_policy == "frozen"
        self.leader_idx = np.array([idx[a] for a in network.leaders], dtype=int)
        self.follower_idx = np.array([idx[a] for a in network.followers],
                                     dtype=int)
        self.order_idx = np.concatenate((self.leader_idx, self.follower_idx))
        nbrs = [(f, network.in_neighbors[f]) for f in network.followers]
        self.nbr_idx = np.array([[idx[a] for a in row] for _, row in nbrs],
                                dtype=int)
        self.static_w = np.array([[network.weights[(f, a)] for a in row]
                                  for f, row in nbrs])
        self.leader_cols, self.follower_cols, self.order_cols = map(
            _columns, (self.leader_idx, self.follower_idx, self.order_idx))
        # the linear test's map: row (q, j) gives follower j's offset e
        # (q = 0) or its simplex's edge q, a linear function of the positions
        k, nbr, j = network.n + 1, self.nbr_idx, np.arange(len(self.nbr_idx))
        quiet = np.zeros((k, len(j), len(idx)))
        quiet[0, j, self.follower_idx] = 1.0
        quiet[0, j[:, None], nbr] = -self.static_w
        quiet[np.arange(1, k)[:, None], j, nbr[:, 1:].T] = 1.0
        quiet[1:, j, nbr[:, 0]] = -1.0
        self._quiet_map = quiet.reshape(-1, len(idx))
        self._edge_inv = hdm.reference_edge_inverse(
            [network.ref_positions[a] for a in network.leaders])
        self.team_matrix = _team_matrix(
            len(idx), _rk4_coefficients(config.gain * config.dt)[0],
            self.follower_idx, self.order_idx, network.W, self.leader_idx)
        # Waypoint profiles are re-anchored at a copy of the leader's
        # position at the build: r_c(t) = r(t0) + wp(t) - wp(t0).  Leaders
        # without one hold.
        t0 = tick * config.dt
        self._grid = (t0, 0.5 * config.dt)
        trajs = [config.trajectories.get(a) for a in network.leaders]
        self._anchors = [(positions[i].copy(), traj,
                          None if traj is None else traj.position(t0))
                         for i, traj in zip(self.leader_idx, trajs)]
        self.deviating = set()

    def _commands(self, tick, ticks):
        """The leaders' commands (L, 2 ticks + 1, 3) from tick to
        tick + ticks on the half-step grid."""
        t0, half_dt = self._grid
        base = 2 * (tick - self.start_tick)
        grid = t0 + half_dt * np.arange(base, base + 2 * ticks + 1)
        cmd = np.empty((len(self._anchors), grid.size, 3))
        for j, (anchor, traj, start) in enumerate(self._anchors):
            cmd[j] = anchor if traj is None \
                else anchor + traj.position(grid) - start
        return cmd

    def plan(self, tick, ticks):
        """The leader plan from tick to tick + ticks: the commands
        (_commands), and on each of the ticks + 1 ticks the commanded
        deformation's singular values (3,), descending (NaN for a collinear
        leader triangle), their margin_ok code and the global desired row
        (N, 3), NaN outside the network.
        """
        cmd = self._commands(tick, ticks)
        at_ticks = cmd[:, ::2].swapaxes(0, 1)
        sigma = hdm.deformation_sigmas(self._edge_inv, at_ticks)
        ok = np.where(sigma[:, -1] >= self.threshold, MARGIN_OK,
                      MARGIN_VIOLATED)
        desired = np.full((ticks + 1, len(self.team_matrix), 3), np.nan)
        desired[:, self.leader_cols] = at_ticks
        desired[:, self.follower_cols] = self.network.W_L @ at_ticks
        return cmd, sigma, ok, desired

    def detect(self, positions):
        """Condition Psi for every follower on each of K ticks of positions
        (K, N, 3): returns the (weights, lo, hi) rows, (K, F, n+1) each,
        and healthy (K, F)."""
        k, count, f = self.network.n + 1, len(positions), len(self.static_w)
        *det, healthy = anomaly.evaluate_followers_batch(
            np.take(positions, self.nbr_idx, axis=1).reshape(-1, k, 3),
            positions[:, self.follower_cols].reshape(-1, 3),
            np.tile(self.static_w, (count, 1)), self.delta, k - 1)
        return [a.reshape(count, f, k) for a in det], healthy.reshape(count, f)

    def verdict(self, positions):
        """detect()'s healthy (K, F) on positions (K, N, 3): the linear test
        (anomaly._quiet) over one product of the epoch's map with them,
        and detect() on each tick's row in which some follower fails it."""
        k, count, f = self.network.n + 1, len(positions), len(self.static_w)
        # coordinate-major, so each of the test's terms is a (F, K) array
        coords = np.ascontiguousarray(positions.transpose(2, 1, 0))
        cols = np.matmul(self._quiet_map, coords).reshape(3, k, f, count)
        healthy = anomaly._quiet(cols, max(positions.max(), -positions.min()),
                                 self.delta, k - 1).T
        rows = np.flatnonzero(~healthy.all(axis=1))
        if rows.size:
            healthy[rows] = self.detect(positions[rows])[1]
        return healthy

    def meta(self):
        net = self.network
        return {
            "start_tick": int(self.start_tick),
            "leaders": [int(a) for a in net.leaders],
            "followers": [int(a) for a in net.followers],
            "in_neighbors": {int(f): [int(a) for a in nbrs]
                             for f, nbrs in net.in_neighbors.items()},
            "Xi_max": float(net.Xi_max),
            "delta": float(self.delta),
            "d_min": float(self.d_min),
            "sigma_threshold": float(self.threshold),
        }


@dataclass
class _Episode:
    """One CEM episode, from entry to the exclusion of the agents it evades."""

    flow: cem.FlowField     # uniform flow past the flagged agents' doublets
    psi0: np.ndarray        # (H,) stream constants in healthy_idx order
    targets: np.ndarray     # (H, 3) streamline targets in healthy_idx order
    center: np.ndarray      # (3,) containment center at entry
    # agents whose stagnation or disk projection is logged, per event kind
    latch: dict = field(default_factory=lambda: {
        "stagnation": set(), "disk_projection": set()})


@dataclass(slots=True)
class _Ahead:
    """Look-ahead block: HDM ticks, or one CEM tick, logged up to row end and
    committed up to the current tick (tick t at index t - end - 1).  Only
    the last tick can flag anyone: an HDM block ends on the first such one."""

    end: int                # tick of its last row
    positions: np.ndarray   # (K, N, 3) positions after each tick
    flags: frozenset        # flagged set on the last tick
    events: list            # [(row, latch, key, Event)] in tick order
    live: bytes = b""       # the live positions' bytes as last committed


def _columns(idx):
    """Agent indices idx as a slice when they run up by one, else as they
    are: indexing with either selects the same agents in the same order."""
    if len(idx) and np.all(np.diff(idx) == 1):
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _rk4_coefficients(h):
    """(a0, a1, a2, a3): one classical RK4 step of r' = g (c(t) - r) with
    h = g dt is exactly r+ = a0 r + a1 c(t) + a2 c(t+dt/2) + a3 c(t+dt)."""
    return (1.0 - h + h**2 / 2 - h**3 / 6 + h**4 / 24,
            h / 6 - h**2 / 6 + h**3 / 12 - h**4 / 24,
            2 * h / 3 - h**2 / 3 + h**3 / 12,
            h / 6)


def _team_matrix(n_agents, a0, follower_idx, order_idx, W, leader_idx):
    """M of the team step r+ = M r + U: followers track W's weighted point
    held over the tick, leaders their commands in U; excluded agents hold."""
    M = np.eye(n_agents)
    M[leader_idx, leader_idx] = a0
    M[follower_idx[:, None], order_idx] = (1.0 - a0) * W
    M[follower_idx, follower_idx] += a0   # W has no self-weight
    return M


def _stage_commands(coeffs, cmd):
    """U's leader rows (L, K, 3) for K ticks of leader commands cmd
    (L, 2K + 1, 3) on the half-step grid."""
    _, a1, a2, a3 = coeffs
    return a1 * cmd[:, :-1:2] + a2 * cmd[:, 1::2] + a3 * cmd[:, 2::2]


def _build_epoch(config, positions, tick, excluded=(), events=None):
    """The network epoch over the agents not excluded, built at positions
    (N, 3) and starting at tick, from one search.  The scenario's leader
    override holds while all its agents remain.  If it fails, a rebuild
    (given the run's events) logs leader_fallback and picks the leaders
    from the same search as if none were given; the first build raises."""
    members = {a: positions[i] for i, a in enumerate(config.agent_ids)
               if a not in excluded}
    override = config.leader_override
    if override is not None and any(a not in members for a in override):
        override = None
    search = refnet._search(members, config.n, config.rho, config.xi)
    try:
        network = refnet._wire(search, override)
    except SelectionError as exc:
        if override is None or events is None:
            raise
        events.append(Event(time=tick * config.dt, kind="leader_fallback",
                            payload={"reason": str(exc)}))
        network = refnet._wire(search)
    return _Epoch(network, config, positions, tick)


def _first_epoch(config, failed="initial network build failed"):
    """The run's tick count and its first network epoch: where a
    Simulation starts and what `contiform check` reports.  A failed build
    raises ScenarioError, its message prefixed with failed."""
    ticks = math.floor(config.duration / config.dt + 1e-9)
    try:
        return ticks, _build_epoch(config, config.ref_positions, 0)
    except (DegeneracyError, SelectionError, NetworkError) as exc:
        raise ScenarioError(f"{failed}: {exc}") from exc


def _derive(log):
    """The log's derived series, name -> (T+1, ...) array, kept until the
    next write: the written rows derived from the state rows and their
    epoch in runs of one mode and health row, the rest unwritten:
    - weights, bounds_lo, bounds_hi: the epoch's detector on HDM rows but
      a rebuilt epoch's first, and on a CEM episode's first row, which
      keeps the flagging tick's verdict; NaN elsewhere;
    - global_desired, sigma, margin_ok: the epoch's plan on HDM rows; on
      CEM rows the targets (NaN if not healthy), NaN and MARGIN_NA;
    - local_desired: on HDM rows W over the previous row (an epoch's first
      row over itself) for followers, the plan for leaders and the previous
      positions for the rest; on CEM rows the targets;
    - center: the healthy agents' mean position, but under the frozen
      policy a CEM episode's rows and the row ending it hold its entry's.
    """
    w, mode, cem = log._written, log.mode, MODE_CODE[Mode.CEM]
    if w.series is not None:
        return w.series
    series = {name: np.full((len(log.times), *shape), value, dtype)
              for name, shape, dtype, value in _log_arrays(
                  len(log.agent_ids), log.n + 1) if name in _DERIVED}
    starts = [ep.start_tick for ep in w.epochs] + [w.end]
    for i, ep in enumerate(w.epochs):
        row, stop = starts[i], min(starts[i + 1], w.end)
        while row < stop:
            end = min(row + Simulation.lookahead_ticks, stop)
            same = (mode[row:end] == mode[row]) & (
                log.health[row:end] == log.health[row]).all(axis=1)
            rows = slice(row, row + (int(np.argmin(same)) or len(same)))
            idx = np.flatnonzero(log.health[row] == HEALTH_OK)   # healthy
            if mode[row] != cem:
                _, sigma, ok, desired = ep.plan(row, rows.stop - row - 1)
                series["sigma"][rows] = sigma
                series["margin_ok"][rows] = ok
                local = log.actual[np.maximum(np.arange(row - 1, rows.stop
                                                        - 1), ep.start_tick)]
                local[:, ep.follower_cols] = \
                    ep.network.W @ local[:, ep.order_cols]
                local[:, ep.leader_cols] = desired[:, ep.leader_cols]
                first, last = row + (row == ep.start_tick and i > 0), rows.stop
            else:
                local = desired = np.full(log.actual[rows].shape, np.nan)
                desired[:, idx] = [w.targets[r] for r in range(row, rows.stop)]
                first, last = row, row + (row == 0 or mode[row - 1] != cem)
            picks = np.arange(row, rows.stop)
            if ep.frozen_center and cem in mode[max(row - 1, 0):row + 1]:
                # an episode's rows and the one ending it: its entry row's
                picks[:None if mode[row] == cem else 1] = np.flatnonzero(
                    np.append(True, mode[:row] != cem))[-1]
            series["center"][rows] = \
                log.actual[picks][:, idx].sum(axis=1) / len(idx)
            series["local_desired"][rows] = local
            series["global_desired"][rows] = desired
            det, _ = ep.detect(log.actual[first:last])   # the rows with weights
            for name, values in zip(_DERIVED[2:5], det):
                series[name][first:last, ep.follower_cols] = values
            row = rows.stop
    w.series = series
    return series


class Simulation:
    """Mutable state of one run; use step() or run_scenario to advance."""

    epochs = property(lambda sim: sim.log.epochs)   # each network epoch's meta
    # longest failure-row chunk, HDM block and derivation run; an instance
    # may set any positive value: 1 evaluates every HDM tick alone
    lookahead_ticks = 256

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.dt = config.dt
        self._rk4 = _rk4_coefficients(config.gain * config.dt)
        self.ids = tuple(config.agent_ids)
        self.idx = {a: i for i, a in enumerate(self.ids)}
        self.n_agents = len(self.ids)
        self.n = config.n
        self.positions = config.ref_positions.copy()
        self.tick = 0
        self.total_ticks, self.epoch = _first_epoch(config)
        self.excluded = set()
        self.flagged = frozenset()
        self.mode = Mode.HDM
        self._refresh_healthy()
        self.events = []
        self._ahead = None
        self._failure_chunk = None   # (start tick, indices, rows)
        self.episode = None   # the CEM episode while in CEM

        self.failures = {}   # agent id -> FailureSpec; only ever added to
        self.failure_anchor = {}   # agent id -> (t_active, anchor position)
        for spec in config.failures:
            self._register_failure(spec)

        rows = self.total_ticks + 1
        self.log = TrajectoryLog(
            agent_ids=self.ids, n=self.n, dt=self.dt,
            times=np.arange(rows) * self.dt, events=self.events, **{
                # np.zeros leaves a zero-filled array's pages untouched
                name: np.zeros((rows, *shape), dtype) if value == 0
                else np.full((rows, *shape), value, dtype)
                for name, shape, dtype, value in _log_arrays(self.n_agents,
                                                             self.n + 1)
                if name not in _DERIVED})
        self.log._write(self.tick, self.positions[None], self.health,
                        MODE_CODE[Mode.HDM], epoch=self.epoch)

    # -- construction helpers -------------------------------------------

    def _register_failure(self, spec):
        """Add a failure (True), or log one the run never reaches (False)."""
        if spec.agent_id not in self.idx:
            raise ValueError(f"unknown agent {spec.agent_id} in failure spec")
        # ignored iff the last tick's start fails _failure_rows's activation
        if (self.total_ticks - 1) * self.dt < spec.time - 1e-12:
            self.events.append(Event(
                time=self.clock, kind="failure_ignored",
                payload={"agent": int(spec.agent_id), "time": float(spec.time)}))
            return False
        self.failures[spec.agent_id] = spec
        self._failure_chunk = None
        self._drop_ahead()
        return True

    # -- tick pieces -----------------------------------------------------

    @property
    def clock(self):
        return self.tick * self.dt

    def _failure_rows(self):
        """Failed agents' indices (A,) and positions (K, A, 3) after each of
        the next K ticks, from the run's chunk (see the module docstring).
        A chunk starts when the last is spent, a failure is added or an HDM
        block starts; a failure activating then anchors where it is."""
        chunk = self._failure_chunk
        if chunk is not None and self.tick < chunk[0] + len(chunk[2]):
            return chunk[1], chunk[2][self.tick - chunk[0]:]
        t_start = self.clock
        for agent_id, spec in self.failures.items():
            if (agent_id not in self.failure_anchor
                    and t_start >= spec.time - 1e-12):
                self.failure_anchor[agent_id] = (
                    t_start, self.positions[self.idx[agent_id]].copy())
                self.events.append(Event(
                    time=t_start, kind="failure_active",
                    payload={"agent": int(agent_id), "kind": spec.kind}))
        size = min(self.lookahead_ticks, self.total_ticks - self.tick)
        later = (self.tick + np.arange(1, size)) * self.dt >= min(
            (spec.time - 1e-12 for a, spec in self.failures.items()
             if a not in self.failure_anchor), default=math.inf)
        size = int(later.argmax()) + 1 if later.any() else size
        active = [a for a in self.failures if a in self.failure_anchor]
        rows = np.empty((size, len(active), 3))
        t_end = (self.tick + np.arange(size)) * self.dt + self.dt
        for j, agent_id in enumerate(active):
            spec = self.failures[agent_id]
            t_active, anchor = self.failure_anchor[agent_id]
            rows[:, j] = anchor if spec.kind == "freeze" else \
                anchor + spec.velocity * (t_end - t_active)[:, None]
        idx = np.array([self.idx[a] for a in active], dtype=int)
        self._failure_chunk = (self.tick, idx, rows)
        return idx, rows

    def _non_finite(self, finite):
        """NumericError for the tick being stepped; finite is (N,) bool."""
        bad = [self.ids[i] for i in np.flatnonzero(~finite)]
        return NumericError(
            f"non-finite position for agents {bad} at tick {self.tick}, "
            f"t={self.clock + self.dt:.6f}")

    def _refresh_healthy(self):
        """Derive the health partition from the excluded and flagged sets:
        the healthy agents' indices, the flagged ids (sorted) and their
        indices, and the (N,) health-code row."""
        self.flagged_ids = sorted(self.flagged)
        self.flagged_idx = np.array([self.idx[a] for a in self.flagged_ids],
                                    dtype=int)
        self.health = np.full(self.n_agents, HEALTH_OK, dtype=np.int8)
        self.health[[self.idx[a] for a in self.excluded]] = HEALTH_EXCLUDED
        self.health[self.flagged_idx] = HEALTH_FLAGGED
        self.healthy_idx = np.flatnonzero(self.health == HEALTH_OK)

    def _containment_center(self):
        """The containment center that (5) reads; see the module docstring."""
        if self.episode is not None and self.epoch.frozen_center:
            return self.episode.center
        idx = self.healthy_idx   # the mean, without np.mean's overhead
        return self.positions[idx].sum(axis=0) / len(idx)

    def _enter_cem(self):
        """Start a CEM episode around the flagged agents; row tick becomes
        its first."""
        flow = cem.build_flow_from_failures(
            self.positions[self.flagged_idx, :2], self.config.cem_u_inf,
            self.config.cem_theta_inf, radius_override=self.config.cem_radius)
        psi0 = cem.assign_stream_constants(
            {self.ids[i]: self.positions[i] for i in self.healthy_idx}, flow)
        self.episode = _Episode(flow,
                                np.fromiter(psi0.values(), dtype=np.float64),
                                self.positions[self.healthy_idx],
                                self._containment_center())
        self.log._write(self.tick, self.positions[None], self.health,
                        MODE_CODE[Mode.CEM], self.episode.targets)

    def _exclude_flagged(self):
        """Exclude the flagged agents, end the CEM episode if any, rebuild
        the network over the rest and log row tick as its epoch's first; a
        failed rebuild raises NumericError."""
        self.excluded |= set(self.flagged)
        self.flagged = frozenset()
        self._refresh_healthy()
        self.episode = None
        self._drop_ahead()   # a block built before the rebuild is stale
        try:
            self.epoch = _build_epoch(self.config, self.positions, self.tick,
                                      self.excluded, self.events)
        except (DegeneracyError, SelectionError, NetworkError) as exc:
            raise NumericError(
                f"reference rebuild failed at tick {self.tick}, "
                f"t={self.clock:.6f}: {exc}") from exc
        self.log._write(self.tick, self.positions[None], self.health,
                        MODE_CODE[Mode.HDM], epoch=self.epoch)

    def _supervise(self):
        """Supervisor transition at the end of a tick; it acts by rewriting
        the tick's row (see the module docstring)."""
        mode, events = transition(
            self.mode, self.flagged_ids, self.positions[self.flagged_idx],
            self._containment_center(), self.config.containment_half_size,
            self.config.containment_norm, self.clock)
        if events:
            self.mode = mode
            self.events.extend(events)
            if self.mode is Mode.CEM:
                self._enter_cem()
            else:
                self._exclude_flagged()

    # -- main loop --------------------------------------------------------

    def step(self):
        """Advance exactly one tick: commit the next buffered one, after
        building a block unless a buffered tick is left and the state it
        was built from is unchanged."""
        if self.tick >= self.total_ticks:
            raise RuntimeError("simulation already complete")
        ahead = self._ahead
        if (ahead is None or self.tick >= ahead.end or self.flagged
                or self.positions.tobytes() != ahead.live):
            self._drop_ahead()
            (self._cem_ahead if self.mode is Mode.CEM else self._look_ahead)()
        self._commit()

    def _drop_ahead(self):
        ahead, self._ahead = self._ahead, None
        if ahead is not None and self.tick < ahead.end:
            self.log._unwrite(self.tick + 1)

    def _look_ahead(self):
        """Integrate a block of HDM ticks from the current state, run the
        detector over it in one pass, write its state rows and keep it for
        _commit."""
        ep = self.epoch
        self._failure_chunk = None   # each HDM block starts a chunk
        fail_idx, fail_rows = self._failure_rows()
        size = len(fail_rows)
        cmd = ep._commands(self.tick, size)
        M, U = ep.team_matrix, np.zeros((size, self.n_agents, 3))
        U[:, ep.leader_cols] = _stage_commands(self._rk4, cmd).swapaxes(0, 1)
        # row 0 holds the current positions, row k + 1 those after tick k
        block = np.empty((size + 1, self.n_agents, 3))
        block[0] = self.positions
        snapshots = list(block)
        for start, r, u, failed in zip(snapshots, snapshots[1:], U,
                                       fail_rows):
            M.dot(start, out=r)
            r += u
            if fail_idx.size:
                r[fail_idx] = failed
        if not np.isfinite(block[1:]).all():
            finite = np.isfinite(block[1:]).all(axis=2)
            if not finite[0].all():
                raise self._non_finite(finite[0])
            # the first non-finite tick starts the next block, which raises
            size = int(np.flatnonzero(~finite.all(axis=1))[0])
        positions = block[1:size + 1]
        healthy = ep.verdict(positions)
        flags = frozenset()
        if not healthy.all():
            size = int(np.flatnonzero(~healthy.all(axis=1))[0]) + 1
            positions = positions[:size]
            flags = frozenset(ep.network.followers[j]
                              for j in np.flatnonzero(~healthy[size - 1]))
        # rows log the live health: the supervisor rewrites the row of a tick
        # with anyone flagged as it commits, which raises no leader_deviation;
        # the others' are (row, latch, leader id, Event) for _commit to emit
        self.log._write(self.tick + 1, positions, self.health,
                        MODE_CODE[Mode.HDM])
        quiet = 0 if self.flagged else size - bool(flags)
        diff = positions[:quiet, ep.leader_cols] \
            - cmd[:, 2:2 * quiet + 1:2].swapaxes(0, 1)
        lag = np.sqrt(np.einsum("kij,kij->ki", diff, diff))
        events, seen = [], set(ep.deviating)
        for k, j in np.argwhere(lag > ep.delta).tolist():
            lid, row = ep.network.leaders[j], self.tick + 1 + k
            if lid not in seen:
                seen.add(lid)
                events.append((row, ep.deviating, lid, Event(
                    time=row * self.dt, kind="leader_deviation",
                    payload={"agent": int(lid), "error": float(lag[k, j])})))
        self._ahead = _Ahead(self.tick + size, positions, flags, events)

    def _cem_ahead(self):
        """Step the CEM episode one tick from the current state, write its
        state row and keep it for _commit as a one-tick block."""
        episode, row = self.episode, self.tick + 1
        fail_idx, fail_rows = self._failure_rows()
        idx, a0 = self.healthy_idx, self._rk4[0]
        targets, stagnated, projected = cem.step_streamline_many(
            episode.targets, episode.flow, self.config.cem_v_phi, self.dt,
            episode.psi0)
        episode.targets = targets
        events = []
        if np.count_nonzero(stagnated):   # projected agents stagnate too
            for flag, kind in ((stagnated, "stagnation"),
                               (projected, "disk_projection")):
                latch = episode.latch[kind]
                events += [(row, latch, a, Event(row * self.dt, kind,
                                                 {"agent": a}))
                           for a in map(int, np.take(self.ids, idx[flag]))
                           if a not in latch]
        positions = self.positions[None].copy()   # the block's one tick
        r = positions[0]
        r[idx] = a0 * r[idx] + (1.0 - a0) * targets
        r[fail_idx] = fail_rows[0]
        if not np.isfinite(r).all():
            raise self._non_finite(np.isfinite(r).all(axis=1))
        self.log._write(row, positions, self.health, MODE_CODE[Mode.CEM],
                        targets)
        self._ahead = _Ahead(row, positions, frozenset(), events)

    def _commit(self):
        """Commit the next buffered tick: the clock advances, its positions
        go live, its events are logged and the supervisor runs."""
        ahead = self._ahead
        self.tick += 1
        # the live row is the block's own: an edit of it between steps
        # differs from the bytes kept here and drops the block, which then
        # is never read again; after the last tick nothing is compared
        self.positions = ahead.positions[self.tick - ahead.end - 1]
        if self.tick < ahead.end:
            ahead.live = self.positions.tobytes()
        # only a block's last tick can flag anyone, and a flagged set edited
        # between steps is kept; (5) leaves HDM with nobody flagged as it is
        if self.tick == ahead.end and ahead.flags:
            self.flagged |= ahead.flags
            self._refresh_healthy()
        for row, latch, key, event in ahead.events:
            if row == self.tick:   # add each key to its latch
                latch.add(key)
                self.events.append(event)
        if self.flagged or self.mode is Mode.CEM:
            self._supervise()

    def run(self):
        while self.tick < self.total_ticks:
            self.step()
        self._drop_ahead()   # release the spent last block
        return self.log


def inject_failure(sim: Simulation, agent_id, kind, time, velocity=None):
    """Schedule a failure on a running simulation.

    kind "freeze" holds the agent's position from the given time;
    "drift" moves it at the constant velocity.  A time past the last
    tick's start warns at the caller's line and only logs failure_ignored.
    The failure is checked as a scenario file's failures entry is: a bad
    one raises ScenarioError (a ValueError) naming the field.
    """
    if velocity is not None:
        velocity = np.asarray(velocity, dtype=np.float64).tolist()
    spec = _failure_spec(
        {"agent": operator.index(agent_id), "time": float(time),
         "kind": kind, "velocity": velocity}, "failure", sim.ids, sim.failures)
    if not sim._register_failure(spec):
        warnings.warn(f"failure of agent {spec.agent_id} at t={spec.time} is "
                      f"beyond the run duration and has no effect",
                      stacklevel=2)
    return sim


def run_scenario(config) -> TrajectoryLog:
    """Execute a full scenario; accepts a ScenarioConfig, path, or text."""
    if not isinstance(config, ScenarioConfig):
        config = load_scenario(config)
    return Simulation(config).run()
