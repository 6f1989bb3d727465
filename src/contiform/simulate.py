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
target c), (3) failure kinematics override, (4) anomaly checks (HDM only;
the flagged set is frozen while CEM is active), (5) supervisor
transition, (6) one log row.

Both modes run one protocol: build a block from the live state, write its
rows ahead, commit one tick per step(), and let a supervisor action
rewrite the committed row.  _commit alone advances the clock, makes a
tick's positions and center live, logs its events and runs (5), in HDM
only with anyone flagged: it enters CEM for a flagged agent inside the
containment domain, or excludes the flagged agents once all are outside
it (on CEM exit, or at once in HDM), rebuilds the network and rewrites
the row as the new epoch's first.  Both builders read the failed agents'
rows (3) from one run-level chunk of at most `lookahead_ticks` ticks, cut
at the run end and before the next activation.  A block is dropped, and
its uncommitted rows cleared, when the state it was built from changes:
a failure added (inject_failure), or positions, mode or flagged set
edited between steps.  The engine writes log rows but never reads them.

An HDM block: until the detector, which reads only the actual positions,
flags someone, neither detection nor logging feeds back into the
dynamics.  So the block advances through the chunk's ticks by (2)-(3),
with the leader commands from one evaluation of the epoch's plan, and
evaluates them in one vectorized pass: the desired positions from the
tick-start snapshots, the detector over all K x F follower rows, the
commanded deformation's singular values, the leader lag and its
leader_deviation events, the containment centers and the rows.  It keeps
the ticks up to and including the first one on which anyone is flagged.

A CEM block is one tick: one cem.step_streamline_many call (1) on the
episode's targets, the healthy agents' (H, 3) in healthy_idx order, with
its stagnation and disk-projection events; its positions are tested for
finiteness once and its tracking center is the healthy mean, as in an
HDM block.  The episode holds the flow past the flagged agents, the
stream constants, the targets, the logged desired row and the event
latch.
"""
from __future__ import annotations

import hashlib
import json
import math
import operator
import warnings
from dataclasses import dataclass, field

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


@dataclass
class TrajectoryLog:
    """Complete per-tick record of one run.

    Row k holds the state at time k * dt; row 0 is the initial state.
    Arrays indexed [tick, agent] follow the scenario's agent order.  The
    simulation only writes rows; mid-run, those past the current tick up to
    the end of its look-ahead block (which holds its own positions and
    centers) are uncommitted, and the later ones hold an unwritten row.
    """

    agent_ids: tuple
    n: int
    dt: float
    times: np.ndarray           # (T+1,)
    actual: np.ndarray          # (T+1, N, 3)
    local_desired: np.ndarray   # (T+1, N, 3)
    global_desired: np.ndarray  # (T+1, N, 3)
    weights: np.ndarray         # (T+1, N, n+1) transient weights, NaN if n/a
    bounds_lo: np.ndarray       # (T+1, N, n+1)
    bounds_hi: np.ndarray       # (T+1, N, n+1)
    health: np.ndarray          # (T+1, N) int8
    mode: np.ndarray            # (T+1,) int8
    center: np.ndarray          # (T+1, 3) containment center
    sigma: np.ndarray           # (T+1, 3) deformation singular values
    margin_ok: np.ndarray       # (T+1,) int8
    events: list = field(default_factory=list)
    epochs: list = field(default_factory=list)

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
    the commanded deformation's smallest sigma; index caches; the team
    matrix; the leaders' plan, anchored at the build's positions and
    evaluated on demand by plan(), so nothing here grows with the run;
    and the leaders whose deviation has been logged.
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
        self.leader_idx = np.array([idx[a] for a in network.leaders], dtype=int)
        self.follower_idx = np.array([idx[a] for a in network.followers],
                                     dtype=int)
        self.order_idx = np.concatenate((self.leader_idx, self.follower_idx))
        nbrs = [(f, network.in_neighbors[f]) for f in network.followers]
        self.nbr_idx = np.array([[idx[a] for a in row] for _, row in nbrs],
                                dtype=int)
        self.static_w = np.array([[network.weights[(f, a)] for a in row]
                                  for f, row in nbrs])
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

    def plan(self, tick, ticks):
        """The leader plan from tick to tick + ticks: the commands
        (L, 2 ticks + 1, 3) on the half-step grid, and on each of the
        ticks + 1 ticks the commanded deformation's singular values (3,),
        descending (NaN for a collinear leader triangle), their margin_ok
        code and the global desired row (N, 3), NaN outside the network.
        """
        t0, half_dt = self._grid
        base = 2 * (tick - self.start_tick)
        grid = t0 + half_dt * np.arange(base, base + 2 * ticks + 1)
        cmd = np.empty((len(self._anchors), grid.size, 3))
        for j, (anchor, traj, start) in enumerate(self._anchors):
            cmd[j] = anchor if traj is None \
                else anchor + traj.position(grid) - start
        at_ticks = cmd[:, ::2].swapaxes(0, 1)
        sigma = hdm.deformation_sigmas(self._edge_inv, at_ticks)
        ok = np.where(sigma[:, -1] >= self.threshold, MARGIN_OK,
                      MARGIN_VIOLATED)
        desired = np.full((ticks + 1, len(self.team_matrix), 3), np.nan)
        desired[:, self.leader_idx] = at_ticks
        desired[:, self.follower_idx] = self.network.W_L @ at_ticks
        return cmd, sigma, ok, desired

    def detect(self, positions):
        """Condition Psi for every follower on each of K ticks of positions
        (K, N, 3): returns the (weights, lo, hi) rows, (K*F, n+1) each, and
        healthy (K, F)."""
        k = self.network.n + 1
        w, lo, hi, healthy = anomaly.evaluate_followers_batch(
            np.take(positions, self.nbr_idx, axis=1).reshape(-1, k, 3),
            np.take(positions, self.follower_idx, axis=1).reshape(-1, 3),
            np.tile(self.static_w, (len(positions), 1)), self.delta, k - 1)
        return (w, lo, hi), healthy.reshape(len(positions), -1)

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
    desired: np.ndarray     # (N, 3) logged desired row, NaN if not healthy
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
    centers: np.ndarray     # (K, 3) containment centers
    flags: frozenset        # flagged set on the last tick
    events: list            # [(row, latch, key, Event)] in tick order


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


class Simulation:
    """Mutable state of one run; use step() or run_scenario to advance."""

    # longest HDM block and failure-row chunk (see the module docstring)
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
        self._tracking_center = config.center_policy == "tracking"
        self._refresh_healthy()
        self.center = self.positions.mean(axis=0)
        self.events = []
        self.epochs = [self.epoch.meta()]   # each network epoch's, as built
        self._ahead = None
        self._failure_chunk = None   # (start tick, indices, rows)
        self.episode = None   # the CEM episode while in CEM

        self.failures = {}   # agent id -> FailureSpec; only ever added to
        self.failure_anchor = {}   # agent id -> (t_active, anchor position)
        for spec in config.failures:
            self._register_failure(spec)

        self._alloc_log()
        # the first row logs the detector's weights; nothing is flagged yet
        det, _ = self.epoch.detect(self.positions[None])
        self._log_epoch_row(det)

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

    def _build_network(self):
        """Rebuild the network over the agents not excluded and start its
        epoch at tick; a failed rebuild raises NumericError."""
        try:
            self.epoch = _build_epoch(self.config, self.positions, self.tick,
                                      self.excluded, self.events)
        except (DegeneracyError, SelectionError, NetworkError) as exc:
            raise NumericError(
                f"reference rebuild failed at tick {self.tick}, "
                f"t={self.clock:.6f}: {exc}") from exc
        self.epochs.append(self.epoch.meta())

    def _alloc_log(self):
        rows = self.total_ticks + 1
        arrays = {
            # np.zeros leaves a zero-filled array's pages untouched
            name: np.zeros((rows, *shape), dtype) if value == 0
            else np.full((rows, *shape), value, dtype)
            for name, shape, dtype, value in _log_arrays(self.n_agents,
                                                         self.n + 1)}
        self.log = TrajectoryLog(
            agent_ids=self.ids, n=self.n, dt=self.dt,
            times=np.arange(rows) * self.dt, events=self.events,
            epochs=self.epochs, **arrays)

    def _clear_rows(self, rows):
        """Reset log rows to the values _alloc_log fills them with."""
        for name, _, _, value in _log_arrays(self.n_agents, self.n + 1):
            getattr(self.log, name)[rows] = value

    # -- tick pieces -----------------------------------------------------

    @property
    def clock(self):
        return self.tick * self.dt

    def _failure_rows(self):
        """Failed agents' indices (A,) and positions (K, A, 3) after each of
        the next K ticks, from the run's chunk (see the module docstring).
        A chunk starts when the last is spent or a failure is added; a
        failure activating then anchors where it is."""
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

    def _centers(self, positions):
        """Containment centers (K, 3) of positions (K, N, 3)."""
        idx = self.healthy_idx   # the mean, without np.mean's overhead
        return positions[:, idx].sum(axis=1) / len(idx)

    def _update_center(self):
        self.center = self._centers(self.positions[None])[0]

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
                                np.full((self.n_agents, 3), np.nan))
        self._write_cem_row(self.tick, self.positions, self.center)

    def _exclude_flagged(self):
        """Exclude the flagged agents, end the CEM episode if any, rebuild
        the network over the rest and log row tick as its epoch's first."""
        self.excluded |= set(self.flagged)
        self.flagged = frozenset()
        self._refresh_healthy()
        self.episode = None
        self._drop_ahead()   # a block built before the rebuild is stale
        self._build_network()
        self._clear_rows(self.tick)
        self._log_epoch_row(None)

    def _supervise(self):
        """Supervisor transition at the end of a tick; it acts by rewriting
        the tick's row (see the module docstring)."""
        mode, events = transition(
            self.mode, self.flagged_ids, self.positions[self.flagged_idx],
            self.center, self.config.containment_half_size,
            self.config.containment_norm, self.clock)
        if events:
            self.mode = mode
            self.events.extend(events)
            if self.mode is Mode.CEM:
                self._enter_cem()
            else:
                self._exclude_flagged()

    # -- log rows ----------------------------------------------------------

    def _write_hdm_rows(self, row0, positions, prev, centers, det, healthy,
                        plan):
        """Log K consecutive HDM rows from row0 on.

        positions are (K, N, 3) and prev the tick-start ones the local
        desired positions come from, centers (K, 3); det holds the
        detector's (weights, lo, hi) rows or None, healthy its (K, F)
        verdicts or None (nothing flagged), and plan the epoch's sigma,
        margin_ok and global desired rows at the rows' times.  Excluded
        agents hold.  Returns the leader_deviation events the rows raise,
        as (row, latch, leader id, Event) in tick order, for the caller to
        emit as each tick commits; a row with anyone flagged raises none,
        since the supervisor rewrites it.
        """
        ep, log = self.epoch, self.log
        count = len(positions)
        rows = slice(row0, row0 + count)
        log.actual[rows] = positions
        log.mode[rows] = MODE_CODE[Mode.HDM]
        log.center[rows] = centers
        log.health[rows] = self.health
        if healthy is not None:
            log.health[rows, ep.follower_idx] = np.where(
                healthy, HEALTH_OK, HEALTH_FLAGGED)
        if det is not None:
            shape = (count, len(ep.follower_idx), self.n + 1)
            for arr, rows_det in zip((log.weights, log.bounds_lo,
                                      log.bounds_hi), det):
                arr[rows, ep.follower_idx] = rows_det.reshape(shape)
        log.local_desired[rows] = prev
        log.local_desired[rows, ep.follower_idx] = \
            ep.network.W @ prev[:, ep.order_idx]
        log.local_desired[rows, ep.leader_idx] = cmd = \
            plan[2][:, ep.leader_idx]
        log.sigma[rows], log.margin_ok[rows], log.global_desired[rows] = plan
        diff = positions[:, ep.leader_idx] - cmd
        lag = np.sqrt(np.einsum("kij,kij->ki", diff, diff))
        quiet = not self.flagged and (healthy is None or healthy.all(axis=1))
        events, seen = [], set(ep.deviating)
        for k, j in np.argwhere((lag > ep.delta)
                                & np.reshape(quiet, (-1, 1))).tolist():
            lid = ep.network.leaders[j]
            if lid not in seen:
                seen.add(lid)
                events.append((row0 + k, ep.deviating, lid, Event(
                    time=(row0 + k) * self.dt, kind="leader_deviation",
                    payload={"agent": int(lid), "error": float(lag[k, j])})))
        return events

    def _emit(self, events):
        """Log (row, latch, key, Event) events, adding each key to its latch."""
        for _, latch, key, event in events:
            latch.add(key)
            self.events.append(event)

    def _log_epoch_row(self, det):
        """Log the row on which a network epoch starts (the first row and
        the row of a rebuild), which no HDM integration produced."""
        _, *plan = self.epoch.plan(self.tick, 0)
        self._emit(self._write_hdm_rows(
            self.tick, self.positions[None], self.positions[None],
            self.center[None], det, None, plan))

    def _write_cem_row(self, row, positions, center):
        """Log a CEM row; only healthy agents have a desired position (the
        healthy set is frozen during an episode)."""
        log, desired = self.log, self.episode.desired
        desired[self.healthy_idx] = self.episode.targets
        log.actual[row] = positions
        log.mode[row] = MODE_CODE[Mode.CEM]
        log.center[row] = center
        log.health[row] = self.health
        log.local_desired[row] = log.global_desired[row] = desired
        log.sigma[row], log.margin_ok[row] = np.nan, MARGIN_NA

    # -- main loop --------------------------------------------------------

    def step(self):
        """Advance exactly one tick."""
        if self.tick >= self.total_ticks:
            raise RuntimeError("simulation already complete")
        if not self._ahead_valid():
            self._drop_ahead()
            (self._cem_ahead if self.mode is Mode.CEM else self._look_ahead)()
        self._commit()

    def _ahead_valid(self):
        """Whether a buffered tick is left and the state it was built from
        is unchanged."""
        ahead = self._ahead
        return (ahead is not None
                and self.tick < ahead.end
                and not self.flagged
                and self.positions.tobytes()
                == ahead.positions[self.tick - ahead.end - 1].tobytes())

    def _drop_ahead(self):
        ahead, self._ahead = self._ahead, None
        if ahead is not None and self.tick < ahead.end:
            self._clear_rows(slice(self.tick + 1, ahead.end + 1))

    def _look_ahead(self):
        """Integrate a block of HDM ticks from the current state, evaluate
        it in one pass, log it and keep it for _commit."""
        ep = self.epoch
        fail_idx, fail_rows = self._failure_rows()
        size = len(fail_rows)
        cmd, *plan = ep.plan(self.tick, size)
        M, U = ep.team_matrix, np.zeros((size, self.n_agents, 3))
        U[:, ep.leader_idx] = _stage_commands(self._rk4, cmd).swapaxes(0, 1)
        positions = np.empty((size, self.n_agents, 3))
        r = self.positions
        for k in range(size):
            r = M.dot(r)
            r += U[k]
            if fail_idx.size:
                r[fail_idx] = fail_rows[k]
            positions[k] = r
        finite = np.isfinite(positions).all(axis=2)
        if not finite[0].all():
            raise self._non_finite(finite[0])
        bad_ticks = np.flatnonzero(~finite.all(axis=1))
        if bad_ticks.size:   # starts the next block, which raises
            size = int(bad_ticks[0])
        positions = positions[:size]
        det, healthy = ep.detect(positions)
        flagged_ticks = np.flatnonzero(~healthy.all(axis=1))
        if flagged_ticks.size:
            size = int(flagged_ticks[0]) + 1
            positions, healthy = positions[:size], healthy[:size]
            det = tuple(a[:size * len(ep.follower_idx)] for a in det)
        prev = np.concatenate((self.positions[None], positions[:-1]))
        plan = [rows[1:size + 1] for rows in plan]   # at the ticks' ends
        centers = self._centers(positions)
        events = self._write_hdm_rows(self.tick + 1, positions, prev, centers,
                                      det, healthy, plan)
        flags = frozenset(ep.network.followers[j]
                          for j in np.flatnonzero(~healthy[-1]))
        self._ahead = _Ahead(self.tick + size, positions, centers, flags,
                             events)

    def _cem_ahead(self):
        """Step the CEM episode one tick from the current state, log its row
        and keep it for _commit as a one-tick block."""
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
        centers = self._centers(positions) if self._tracking_center \
            else self.center[None]
        self._write_cem_row(row, r, centers[0])
        self._ahead = _Ahead(row, positions, centers, frozenset(), events)

    def _commit(self):
        """Commit the next buffered tick: the clock advances, its positions
        and center go live, its events are logged and the supervisor runs."""
        ahead = self._ahead
        self.tick += 1
        k = self.tick - ahead.end - 1
        self.positions = ahead.positions[k].copy()   # not a view of the block
        self.center = ahead.centers[k]
        # only a block's last tick can flag anyone, and a flagged set edited
        # between steps is kept; (5) leaves HDM with nobody flagged as it is
        if self.tick == ahead.end and ahead.flags:
            self.flagged |= ahead.flags
            self._refresh_healthy()
            self._update_center()
        if ahead.events:
            self._emit(e for e in ahead.events if e[0] == self.tick)
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
