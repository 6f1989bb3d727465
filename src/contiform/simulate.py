"""Fixed-step simulation loop: dynamics, detection, supervision, logging.

Every agent is a single integrator tracking its local desired position,
r' = g (r_d - r), integrated per tick with the classical 4th-order scheme.
Within one tick every computation reads the previous tick's position
snapshot: follower desired positions are frozen over the tick while leader
commands are sampled at the three integration stage times.  The loop is
strictly sequential and free of randomness, so identical configurations
produce bit-identical trajectory logs.

Per tick, in order: (1) desired positions per mode, (2) RK4 position
update for every agent, (3) failure kinematics override, (4) anomaly
checks (HDM only; the flagged set is frozen while CEM is active),
(5) supervisor transition, (6) one log row.

HDM ticks run this order in look-ahead blocks.  The detector reads only
the actual positions, and until it flags someone neither detection nor
logging feeds back into the dynamics.  So a step() on an HDM tick with
nothing flagged and nothing buffered integrates up to `lookahead_ticks`
ticks ahead, steps (1)-(3) per tick as above, ending the block at the run
end and before any tick on which a failure activates.  It then evaluates
the whole block in one vectorized pass: the detector over all K x F
follower rows, the commanded deformation's singular values, the leader lag
and its leader_deviation events in tick order, the containment center and
the log rows.  The block keeps the ticks up to and including the first one
on which the detector flags anyone, and each step() call commits one
buffered tick; the flagged tick runs the supervisor transition (5).  An
HDM tick with agents already flagged is a block of one tick, and CEM ticks
run one at a time.  The buffer is dropped, and its uncommitted log rows
cleared, when the state it was built from changes between steps: a failure
added or edited (inject_failure), or positions, mode or flagged set edited.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import anomaly, cem, hdm, refnet
from .automaton import Event, Mode, ModeState, transition
from .errors import (ConnectivityError, DegeneracyError, NetworkError,
                     NumericError, ScenarioError, SelectionError)
from .scenario import (FailureSpec, ScenarioConfig, _number, _position,
                       load_scenario)

MODE_CODE = {Mode.HDM: 0, Mode.CEM: 1}
HEALTH_OK, HEALTH_FLAGGED, HEALTH_EXCLUDED = 1, 0, -1

# margin_ok codes: 1 satisfied, 0 violated, -1 not applicable (CEM)
MARGIN_OK, MARGIN_VIOLATED, MARGIN_NA = 1, 0, -1


@dataclass
class TrajectoryLog:
    """Complete per-tick record of one run.

    Row k holds the state at time k * dt; row 0 is the initial state.
    Arrays indexed [tick, agent] follow the scenario's agent order.  While
    a run is in progress, the rows past the current tick may already hold
    the buffered look-ahead block.
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
        for arr in (self.times, self.actual, self.local_desired,
                    self.global_desired, self.weights, self.bounds_lo,
                    self.bounds_hi, self.health, self.mode, self.center,
                    self.sigma, self.margin_ok):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(json.dumps(
            [[e.time, e.kind, e.payload] for e in self.events],
            sort_keys=True).encode())
        return h.hexdigest()

    def events_of_kind(self, kind):
        return [e for e in self.events if e.kind == kind]

    def mode_changes(self):
        return self.events_of_kind("mode_change")


class _Epoch:
    """Precomputed index caches for one reference-network epoch."""

    def __init__(self, network, idx, start_tick, delta, threshold):
        self.network = network
        self.start_tick = start_tick
        self.delta = delta
        self.threshold = threshold
        self.leader_idx = np.array([idx[a] for a in network.leaders], dtype=int)
        self.follower_idx = np.array([idx[a] for a in network.followers],
                                     dtype=int)
        self.order_idx = np.array([idx[a] for a in network.agent_order],
                                  dtype=int)
        k = network.n + 1
        f_count = len(network.followers)
        self.nbr_idx = np.zeros((f_count, k), dtype=int)
        self.static_w = np.zeros((f_count, k))
        for j, fid in enumerate(network.followers):
            nbrs = network.in_neighbors[fid]
            self.nbr_idx[j] = [idx[a] for a in nbrs]
            self.static_w[j] = [network.weights[(fid, a)] for a in nbrs]
        self._fit_inv = hdm.leader_fit_system(
            [network.ref_positions[a] for a in network.leaders], network.n)

    def sigmas(self, leader_cmd):
        """Singular values (K, 3), descending, of the deformations the
        leader commands (K, L, 3) impose, and their margin_ok codes (K,).

        A degenerate commanded leader simplex logs NaN and violates the
        margin.
        """
        sol = hdm.fit_transforms_batch(self._fit_inv, leader_cmd)
        degenerate = np.isnan(sol).any(axis=(1, 2))
        # rows [Q^T; d]; sigma(Q^T) = sigma(Q)
        sigma = np.linalg.svd(np.where(degenerate[:, None, None], 0.0,
                                       sol[:, :3]), compute_uv=False)
        sigma[degenerate] = np.nan
        ok = np.where(sigma[:, -1] >= self.threshold, MARGIN_OK,
                      MARGIN_VIOLATED)
        return sigma, ok

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
            "d_min": float(net.d_min),
            "sigma_threshold": float(self.threshold),
        }


@dataclass
class _Ahead:
    """Look-ahead block: HDM ticks integrated and logged, not yet committed.

    Holds the state after each of its K ticks; only the last tick can have
    anyone flagged (the block ends on the first such tick).
    """

    start: int              # tick the block starts from
    positions: np.ndarray   # (K, N, 3) positions after each tick
    centers: np.ndarray     # (K, 3) containment centers
    flags: frozenset        # flagged set on the last tick
    events: list            # [(k, leader id, Event)] in tick order
    failures: tuple         # failure specs it was built under
    committed: int = 0


def epoch_bounds(network, config: ScenarioConfig):
    """(Delta, d_min, sigma threshold) of one network epoch.

    Delta is the deviation bound for the scenario's tolerances, d_min the
    scenario's override or else the network's smallest reference
    separation, and the threshold the collision-safety bound on the
    smallest singular value of the commanded deformation.
    """
    _, delta = refnet.deviation_bound(network.D, network.B,
                                      *config.tolerances)
    d_min = network.d_min if config.d_min_override is None \
        else config.d_min_override
    threshold, _ = hdm.collision_safety_margin(
        np.ones(3), delta, config.vehicle_radius, d_min)
    return delta, d_min, threshold


def _rk4_track(r, rd1, rd2, rd3, g, dt):
    """RK4 step of r' = g (rd(t) - r), rd sampled at t, t+dt/2, t+dt."""
    k1 = g * (rd1 - r)
    k2 = g * (rd2 - (r + 0.5 * dt * k1))
    k3 = g * (rd2 - (r + 0.5 * dt * k2))
    k4 = g * (rd3 - (r + dt * k3))
    return r + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


class Simulation:
    """Mutable state of one run; use step() or run_scenario to advance."""

    # longest look-ahead block of quiet HDM ticks (see the module docstring)
    lookahead_ticks = 64

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.dt = config.dt
        self.g = config.gain
        self.ids = tuple(config.agent_ids)
        self.idx = {a: i for i, a in enumerate(self.ids)}
        self.n_agents = len(self.ids)
        self.n = config.n
        self.positions = config.ref_positions.copy()
        self.tick = 0
        self.total_ticks = int(math.floor(config.duration / config.dt + 1e-9))
        self.excluded = set()
        self.flagged = frozenset()
        self.mode = Mode.HDM
        self.entered_at = 0.0
        self._tracking_center = config.center_policy == "tracking"
        self._healthy_idx = np.arange(self.n_agents)
        self.center = self.positions.mean(axis=0)
        self.events = []
        self.epochs = []
        self._deviating_leaders = set()
        self._ahead = None

        self.failures = {}
        self.failure_anchor = {}   # agent id -> (t_active, anchor position)
        for spec in config.failures:
            self._register_failure(spec)

        # CEM machinery, populated at mode entry
        self.flow = None
        self.cem_targets = None
        self.psi0 = None
        self.healthy_idx = None

        try:
            self._build_network(initial=True)
        except (DegeneracyError, SelectionError, ConnectivityError,
                NetworkError) as exc:
            raise ScenarioError(f"initial network build failed: {exc}") from exc

        self._alloc_log()
        # the first row logs the detector's weights; nothing is flagged yet
        det, _ = self._detect(self.positions[None])
        self._log_epoch_row(det)

    # -- construction helpers -------------------------------------------

    def _register_failure(self, spec: FailureSpec):
        if spec.agent_id not in self.idx:
            raise ValueError(f"unknown agent {spec.agent_id} in failure spec")
        if spec.time >= self.config.duration:
            warnings.warn(
                f"failure of agent {spec.agent_id} at t={spec.time} is beyond "
                f"the run duration and has no effect", stacklevel=3)
            self.events.append(Event(
                time=0.0, kind="failure_ignored",
                payload={"agent": int(spec.agent_id), "time": float(spec.time)}))
            return
        self.failures[spec.agent_id] = spec

    def _build_network(self, initial):
        members = {a: self.positions[self.idx[a]]
                   for a in self.ids if a not in self.excluded}
        override = self.config.leader_override
        if override is not None and any(a not in members for a in override):
            override = None
        network = None
        if override is not None:
            try:
                network = refnet.build_reference_configuration(
                    members, n=self.n, rho=self.config.rho, xi=self.config.xi,
                    leader_override=list(override))
            except SelectionError as exc:
                if initial:
                    raise
                self.events.append(Event(
                    time=self.clock, kind="leader_fallback",
                    payload={"reason": str(exc)}))
        if network is None:
            network = refnet.build_reference_configuration(
                members, n=self.n, rho=self.config.rho, xi=self.config.xi)
        delta, _, threshold = epoch_bounds(network, self.config)
        self.network = network
        self.epoch = _Epoch(network, self.idx, self.tick, delta, threshold)
        self.epochs.append(self.epoch)
        self.delta = delta
        self._deviating_leaders = set()
        self._anchor_trajectories()

    def _anchor_trajectories(self):
        """Precompute leader commands on the half-step stage grid.

        Waypoint profiles are re-anchored at the leader's position when the
        network is built: r_c(t) = r(t_anchor) + wp(t) - wp(t_anchor).
        Leaders without a waypoint list hold their anchor position.
        """
        t0 = self.tick * self.dt
        remaining = self.total_ticks - self.tick
        grid = t0 + 0.5 * self.dt * np.arange(2 * remaining + 1)
        leaders = self.network.leaders
        cmd = np.empty((len(leaders), grid.size, 3))
        for j, lid in enumerate(leaders):
            anchor = self.positions[self.idx[lid]]
            traj = self.config.trajectories.get(lid)
            if traj is None:
                cmd[j] = anchor
            else:
                wp0 = traj.position(t0)
                cmd[j] = anchor + traj.position(grid) - wp0
        self._leader_cmd = cmd
        self._grid_base_tick = self.tick

    def _alloc_log(self):
        rows = self.total_ticks + 1
        n, k = self.n_agents, self.n + 1
        self.log = TrajectoryLog(
            agent_ids=self.ids, n=self.n, dt=self.dt,
            times=np.arange(rows) * self.dt,
            actual=np.zeros((rows, n, 3)),
            local_desired=np.zeros((rows, n, 3)),
            global_desired=np.zeros((rows, n, 3)),
            weights=np.full((rows, n, k), np.nan),
            bounds_lo=np.full((rows, n, k), np.nan),
            bounds_hi=np.full((rows, n, k), np.nan),
            health=np.full((rows, n), HEALTH_OK, dtype=np.int8),
            mode=np.zeros(rows, dtype=np.int8),
            center=np.zeros((rows, 3)),
            sigma=np.full((rows, 3), np.nan),
            margin_ok=np.full(rows, MARGIN_NA, dtype=np.int8),
            events=self.events,
            epochs=[],
        )

    def _clear_rows(self, rows):
        """Reset log rows to the values _alloc_log fills them with."""
        log = self.log
        for arr in (log.actual, log.local_desired, log.global_desired,
                    log.center):
            arr[rows] = 0.0
        for arr in (log.weights, log.bounds_lo, log.bounds_hi, log.sigma):
            arr[rows] = np.nan
        log.health[rows] = HEALTH_OK
        log.mode[rows] = MODE_CODE[Mode.HDM]
        log.margin_ok[rows] = MARGIN_NA

    # -- tick pieces -----------------------------------------------------

    @property
    def clock(self):
        return self.tick * self.dt

    def _hdm_targets(self, positions, leader_cmd):
        """Local desired positions (S, N, 3) for S leader commands
        (L, S, 3): followers at their weighted in-neighbor point, leaders
        at the command, excluded agents where they are."""
        ep = self.epoch
        rd = np.empty((leader_cmd.shape[1],) + positions.shape)
        rd[:] = positions
        rd[:, ep.follower_idx] = ep.network.W @ positions[ep.order_idx]
        rd[:, ep.leader_idx] = leader_cmd.swapaxes(0, 1)
        return rd

    def _cem_desired(self):
        """Advance streamline targets one step; all stages track the result."""
        idx = self.healthy_idx
        targets = self.cem_targets[idx]
        stepped, stagnated, projected = cem.step_streamline_many(
            targets, self.flow, self.config.cem_v_phi, self.dt, self.psi0)
        self.cem_targets[idx] = stepped
        t_next = self.clock + self.dt
        for flag, kind in ((stagnated, "stagnation"),
                           (projected, "disk_projection")):
            if np.any(flag):
                for j in np.flatnonzero(flag):
                    agent = self.ids[idx[j]]
                    if agent not in self._cem_event_latch[kind]:
                        self._cem_event_latch[kind].add(agent)
                        self.events.append(Event(
                            time=t_next, kind=kind,
                            payload={"agent": int(agent)}))
        rd = self.positions.copy()
        rd[idx] = stepped
        return rd

    def _apply_failures(self, positions, snapshot, t_start, t_end):
        """Override failed agents' rows of the tick's new positions;
        snapshot holds the positions the tick started from."""
        for agent_id, spec in self.failures.items():
            if t_start < spec.time - 1e-12:
                continue
            i = self.idx[agent_id]
            if agent_id not in self.failure_anchor:
                # anchor at the position held when the failure activates
                self.failure_anchor[agent_id] = (t_start, snapshot[i].copy())
                self.events.append(Event(
                    time=t_start, kind="failure_active",
                    payload={"agent": int(agent_id), "kind": spec.kind}))
            t_active, anchor = self.failure_anchor[agent_id]
            if spec.kind == "freeze":
                positions[i] = anchor
            else:
                positions[i] = anchor + spec.velocity * (t_end - t_active)

    def _non_finite(self, finite):
        """NumericError for the tick being stepped; finite is (N,) bool."""
        bad = [self.ids[i] for i in np.flatnonzero(~finite)]
        return NumericError(
            f"non-finite position for agents {bad} at tick {self.tick}, "
            f"t={self.clock + self.dt:.6f}")

    def _detect(self, positions):
        """Condition Psi for every follower on each of K ticks of positions
        (K, N, 3): returns the (weights, lo, hi) rows, (K*F, n+1) each, and
        healthy (K, F)."""
        ep = self.epoch
        w, lo, hi, healthy = anomaly.evaluate_followers_batch(
            positions[:, ep.nbr_idx].reshape(-1, self.n + 1, 3),
            positions[:, ep.follower_idx].reshape(-1, 3),
            np.tile(ep.static_w, (len(positions), 1)), self.delta, self.n)
        return (w, lo, hi), healthy.reshape(len(positions), -1)

    def _refresh_healthy(self):
        mask = np.ones(self.n_agents, dtype=bool)
        for a in self.excluded:
            mask[self.idx[a]] = False
        for a in self.flagged:
            mask[self.idx[a]] = False
        self._healthy_idx = np.flatnonzero(mask)

    def _update_center(self):
        if self._tracking_center or self.mode is Mode.HDM:
            self.center = self.positions[self._healthy_idx].mean(axis=0)

    def _enter_cem(self, clock):
        failed_xy = np.stack([self.positions[self.idx[a]][:2]
                              for a in sorted(self.flagged)])
        self.flow = cem.build_flow_from_failures(
            failed_xy, self.config.cem_u_inf, self.config.cem_theta_inf,
            radius_override=self.config.cem_radius)
        healthy = [a for a in self.ids
                   if a not in self.excluded and a not in self.flagged]
        self.healthy_idx = np.array([self.idx[a] for a in healthy], dtype=int)
        pos_map = {a: self.positions[self.idx[a]] for a in healthy}
        psi0 = cem.assign_stream_constants(pos_map, self.flow)
        self.psi0 = np.array([psi0[a] for a in healthy])
        self.cem_targets = self.positions.copy()
        self._cem_event_latch = {"stagnation": set(), "disk_projection": set()}

    def _exit_cem(self, clock):
        self.excluded |= set(self.flagged)
        self.flagged = frozenset()
        self._refresh_healthy()
        self.flow = None
        self.cem_targets = None
        self.psi0 = None
        self.healthy_idx = None
        try:
            self._build_network(initial=False)
        except (DegeneracyError, SelectionError, ConnectivityError,
                NetworkError) as exc:
            raise NumericError(
                f"reference rebuild failed at t={clock:.6f}: {exc}") from exc

    def _supervise(self, clock):
        """Supervisor transition at the end of a tick with agents flagged."""
        state = ModeState(
            mode=self.mode, entered_at=self.entered_at,
            containment_center=self.center,
            containment_half_size=self.config.containment_half_size,
            norm_kind=self.config.containment_norm)
        flagged_pos = {a: self.positions[self.idx[a]] for a in self.flagged}
        next_state, events = transition(state, None, self.flagged,
                                        flagged_pos, clock)
        if next_state.mode is self.mode:
            return
        self.mode = next_state.mode
        self.entered_at = next_state.entered_at
        self.events.extend(events)
        if self.mode is Mode.CEM:
            self._enter_cem(clock)
        else:
            self._exit_cem(clock)

    # -- log rows ----------------------------------------------------------

    def _write_hdm_rows(self, row0, positions, local, centers, det,
                        healthy):
        """Log K consecutive HDM rows from row0 on.

        positions and local are (K, N, 3), centers (K, 3); det holds the
        detector's (weights, lo, hi) rows or None, healthy its (K, F)
        verdicts or None (nothing flagged).  Returns the leader_deviation
        events the rows raise, as (k, leader id, Event) in tick order, for
        the caller to emit as each tick commits.
        """
        ep, log = self.epoch, self.log
        count = len(positions)
        rows = slice(row0, row0 + count)
        base = 2 * (row0 - self._grid_base_tick)
        cmd = self._leader_cmd[:, base:base + 2 * count:2].swapaxes(0, 1)
        log.actual[rows] = positions
        log.mode[rows] = MODE_CODE[Mode.HDM]
        log.center[rows] = centers
        excluded = [self.idx[a] for a in self.excluded]
        log.health[rows, excluded] = HEALTH_EXCLUDED
        if healthy is not None:
            log.health[rows, ep.follower_idx] = np.where(
                healthy, HEALTH_OK, HEALTH_FLAGGED)
        if det is not None:
            shape = (count, len(ep.follower_idx), self.n + 1)
            for arr, rows_det in zip((log.weights, log.bounds_lo,
                                      log.bounds_hi), det):
                arr[rows, ep.follower_idx] = rows_det.reshape(shape)
        log.local_desired[rows] = local
        glob = log.global_desired[rows]
        glob[:] = np.nan
        glob[:, ep.leader_idx] = cmd
        glob[:, ep.follower_idx] = ep.network.W_L @ cmd
        log.sigma[rows], log.margin_ok[rows] = ep.sigmas(cmd)
        diff = positions[:, ep.leader_idx] - cmd
        lag = np.sqrt(np.einsum("kij,kij->ki", diff, diff))
        events, seen = [], set(self._deviating_leaders)
        for k, j in np.argwhere(lag > self.delta).tolist():
            lid = ep.network.leaders[j]
            if lid not in seen:
                seen.add(lid)
                events.append((k, lid, Event(
                    time=(row0 + k) * self.dt, kind="leader_deviation",
                    payload={"agent": int(lid), "error": float(lag[k, j])})))
        return events

    def _emit(self, events):
        for _, lid, event in events:
            self._deviating_leaders.add(lid)
            self.events.append(event)

    def _log_epoch_row(self, det):
        """Log the row on which a network epoch starts (the first row and
        the row of a rebuild), which no HDM integration produced."""
        base = 2 * (self.tick - self._grid_base_tick)
        local = self._hdm_targets(self.positions,
                                  self._leader_cmd[:, base:base + 1])
        self._emit(self._write_hdm_rows(
            self.tick, self.positions[None], local, self.center[None], det,
            None))

    def _write_cem_row(self, row):
        log = self.log
        log.actual[row] = self.positions
        log.mode[row] = MODE_CODE[Mode.CEM]
        log.center[row] = self.center
        for a in self.excluded:
            log.health[row, self.idx[a]] = HEALTH_EXCLUDED
        for a in self.flagged:
            log.health[row, self.idx[a]] = HEALTH_FLAGGED
        desired = np.full((self.n_agents, 3), np.nan)
        desired[self.healthy_idx] = self.cem_targets[self.healthy_idx]
        log.local_desired[row] = desired
        log.global_desired[row] = desired
        log.sigma[row] = np.nan
        log.margin_ok[row] = MARGIN_NA

    # -- main loop --------------------------------------------------------

    def step(self):
        """Advance exactly one tick."""
        if self.tick >= self.total_ticks:
            raise RuntimeError("simulation already complete")
        if not (self.mode is Mode.HDM and self._ahead_valid()):
            self._drop_ahead()
            if self.mode is Mode.CEM:
                self._cem_step()
                return
            self._look_ahead()
        self._commit()

    def _ahead_valid(self):
        """Whether a buffered tick is left and the state it was built from
        is unchanged."""
        ahead = self._ahead
        return (ahead is not None
                and ahead.committed < len(ahead.positions)
                and self.tick == ahead.start + ahead.committed
                and not self.flagged
                and len(self.failures) == len(ahead.failures)
                and all(a is b for a, b in zip(self.failures.values(),
                                               ahead.failures))
                and self.positions.tobytes()
                == ahead.positions[ahead.committed - 1].tobytes())

    def _drop_ahead(self):
        ahead, self._ahead = self._ahead, None
        if ahead is not None:
            self._clear_rows(slice(ahead.start + ahead.committed + 1,
                                   ahead.start + len(ahead.positions) + 1))

    def _look_ahead(self):
        """Integrate a block of HDM ticks from the current state, evaluate
        and log it in one pass, and buffer it for _commit."""
        ep = self.epoch
        size = min(1 if self.flagged else self.lookahead_ticks,
                   self.total_ticks - self.tick)
        activation = min((spec.time - 1e-12 for a, spec in
                          self.failures.items()
                          if a not in self.failure_anchor), default=math.inf)
        positions = np.empty((size, self.n_agents, 3))
        local = np.empty_like(positions)
        cmd = self._leader_cmd[:, 2 * (self.tick - self._grid_base_tick):]
        r = self.positions
        for k in range(size):
            t_start = (self.tick + k) * self.dt
            if k and t_start >= activation:
                size = k   # the activation tick starts the next block
                break
            rd1, rd2, rd3 = self._hdm_targets(r, cmd[:, 2 * k:2 * k + 3])
            r_next = _rk4_track(r, rd1, rd2, rd3, self.g, self.dt)
            self._apply_failures(r_next, r, t_start, t_start + self.dt)
            positions[k], local[k], r = r_next, rd3, r_next
        finite = np.isfinite(positions[:size]).all(axis=2)
        if not finite[0].all():
            raise self._non_finite(finite[0])
        bad_ticks = np.flatnonzero(~finite.all(axis=1))
        if bad_ticks.size:   # starts the next block, which raises
            size = int(bad_ticks[0])
        positions, local = positions[:size], local[:size]
        det, healthy = self._detect(positions)
        flagged_ticks = np.flatnonzero(~healthy.all(axis=1))
        if flagged_ticks.size:
            size = int(flagged_ticks[0]) + 1
            positions, local, healthy = \
                positions[:size], local[:size], healthy[:size]
            det = tuple(a[:size * len(ep.follower_idx)] for a in det)
        centers = positions[:, self._healthy_idx].mean(axis=1)
        events = self._write_hdm_rows(self.tick + 1, positions, local,
                                      centers, det, healthy)
        flags = frozenset(ep.network.followers[j]
                          for j in np.flatnonzero(~healthy[-1]))
        self._ahead = _Ahead(self.tick, positions, centers, flags, events,
                             tuple(self.failures.values()))

    def _commit(self):
        """Commit the next buffered HDM tick."""
        ahead = self._ahead
        k = ahead.committed
        ahead.committed += 1
        t_end = self.clock + self.dt
        self.positions = ahead.positions[k].copy()
        self.tick += 1
        flags = ahead.flags if ahead.committed == len(ahead.positions) \
            else frozenset()
        if flags != self.flagged:
            self.flagged = flags
            self._refresh_healthy()
            self._update_center()
            self.log.center[self.tick] = self.center
        else:
            self.center = ahead.centers[k]
        # HDM with nothing flagged is a fixed point of the automaton, so
        # the transition is skipped on quiet ticks
        if self.flagged:
            self._supervise(t_end)
        if self.mode is Mode.CEM:   # entered on this tick
            self._write_cem_row(self.tick)
        elif ahead.events:
            self._emit(e for e in ahead.events if e[0] == k)

    def _cem_step(self):
        """One CEM tick; the detector is suspended, the flagged set frozen."""
        t_start = self.clock
        rd = self._cem_desired()
        positions = _rk4_track(self.positions, rd, rd, rd, self.g, self.dt)
        self._apply_failures(positions, self.positions, t_start,
                             t_start + self.dt)
        finite = np.isfinite(positions).all(axis=1)
        if not finite.all():
            raise self._non_finite(finite)
        self.positions = positions
        self.tick += 1
        self._update_center()
        self._supervise(t_start + self.dt)
        if self.mode is Mode.CEM:
            self._write_cem_row(self.tick)
        else:   # back to HDM on a rebuilt network
            self._log_epoch_row(None)

    def run(self):
        while self.tick < self.total_ticks:
            self.step()
        self.log.epochs = [ep.meta() for ep in self.epochs]
        return self.log


def step_simulation(sim: Simulation, dt=None):
    """Advance one tick; dt, if given, must equal the configured step."""
    if dt is not None and abs(dt - sim.dt) > 1e-15:
        raise ValueError(
            f"fixed-step integrator: dt must equal the configured "
            f"{sim.dt}, got {dt}")
    sim.step()
    return sim


def inject_failure(sim: Simulation, agent_id, kind, time, velocity=None):
    """Schedule a failure on a running simulation.

    kind "freeze" holds the agent's position from the given time;
    "drift" moves it at the constant velocity.  A time at or beyond the
    run's end warns and has no effect.  A non-finite or negative time and
    a non-finite or malformed velocity raise ScenarioError (a ValueError)
    naming the field, as in a scenario file.
    """
    if agent_id not in sim.idx:
        raise ValueError(f"unknown agent {agent_id}")
    if kind not in ("freeze", "drift"):
        raise ValueError(f"failure kind must be freeze or drift, got {kind!r}")
    time = _number(float(time), "time", nonnegative=True)
    if kind == "drift":
        if velocity is None:
            raise ValueError("drift failure requires a velocity")
        velocity = _position(np.asarray(velocity, dtype=np.float64).tolist(),
                             "velocity")
    if agent_id in sim.failures:
        raise ValueError(f"agent {agent_id} already has a failure")
    spec = FailureSpec(agent_id=agent_id, time=time, kind=kind,
                       velocity=velocity)
    end_time = sim.total_ticks * sim.dt
    if spec.time >= end_time:
        warnings.warn(
            f"failure of agent {agent_id} at t={spec.time} is beyond the run "
            f"duration and has no effect", stacklevel=2)
        sim.events.append(Event(
            time=sim.clock, kind="failure_ignored",
            payload={"agent": int(agent_id), "time": float(spec.time)}))
        return sim
    sim.failures[agent_id] = spec
    return sim


def run_scenario(config) -> TrajectoryLog:
    """Execute a full scenario; accepts a ScenarioConfig, path, or text."""
    if not isinstance(config, ScenarioConfig):
        config = load_scenario(config)
    return Simulation(config).run()
