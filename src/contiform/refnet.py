"""Reference network construction.

From a static reference formation this module decides which agents sit
on the team boundary, which of those act as leaders, assigns every
follower an enclosing in-neighbor simplex, and assembles the weight
matrices

    W = [B | A],  D = -I + A,  W_L = -D^-1 B

whose rows reproduce each follower's reference position from its
in-neighbors. W_L maps leader positions to follower positions under any
homogeneous deformation, which is what makes local tracking equal
global tracking.

One nearest-first search per agent over (n+1)-tuples of the other
agents answers both questions: it returns the agent's in-neighbor
simplex, or, having tried every tuple without finding one that encloses
the agent, marks it boundary. An interior agent's search usually stops
among its nearest candidates, but a boundary agent's walks all
C(N-1, n+1) tuples, so the cost is combinatorial in team size; intended
for teams of a few dozen agents.  The searches are one private step and
the wiring (leaders, followers, weights, matrices) another, so that the
simulation's rebuild can pick leaders a second time from the same search.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, NetworkError, SelectionError
from .geometry import (DEFAULT_XI, _barycentric, _check_n, _full_rank,
                       as_position, lambda_nd_batch)

# Inclusion-margin defaults per dimension; must stay below 1/(n+1).
DEFAULT_RHO = {2: 0.1, 3: 0.05}

# Initial k-nearest candidate pool for the in-neighbor search.
SEARCH_K0 = 8

_CHUNK = 4096


@dataclass(frozen=True)
class ReferenceConfiguration:
    """Frozen result of a network build over one reference formation."""

    n: int
    rho: float
    xi: float
    ids: tuple                      # all agent ids, ascending
    ref_positions: dict             # id -> (3,) array
    boundary: frozenset
    interior: frozenset
    leaders: tuple                  # ordered, len n+1
    followers: tuple                # ordered ascending, len N-n-1
    in_neighbors: dict              # follower id -> tuple of n+1 ids
    weights: dict                   # (follower id, neighbor id) -> float
    W: np.ndarray                   # (F, N) rows = followers, cols = leaders then followers
    B: np.ndarray                   # (F, n+1) leader columns of W
    D: np.ndarray                   # -I + A, Hurwitz
    W_L: np.ndarray                 # (F, n+1) leader-to-follower map
    Xi_max: float                   # disturbance amplification factor
    d_min: float = field(default=np.nan)  # min pairwise reference distance

    @property
    def agent_order(self):
        """Column order of W: leaders first, then followers."""
        return tuple(self.leaders) + tuple(self.followers)


def _enclosing_simplex(i, ids, pos, dists, n, rho, xi):
    """Best admissible in-neighbor tuple of agent i, or None.

    ids and pos are all agents and dists is agent i's row of the distance
    table, infinite at i itself. A tuple is admissible when all its
    weights for agent i exceed rho; the best minimizes the summed distance
    to it, ties breaking to the smallest sorted id tuple. Candidates are
    ordered by (distance, id) and the pool starts at the SEARCH_K0
    nearest; each round tries the tuples whose farthest member is new,
    then doubles the pool until no tuple with an unseen candidate can
    beat the best sum. None means the whole pool was searched and
    nothing encloses agent i: a boundary agent.
    """
    # agent i itself, at infinity, sorts last
    order = np.lexsort((ids, dists))[:-1]
    own, ids, pos, dists = pos[i], ids[order], pos[order], dists[order]
    total = len(ids)
    k, evaluated = min(SEARCH_K0, total), 0
    best_sum, best = np.inf, None
    while True:
        # tuples with a new candidate come first, descending; flip to ascend
        combos = itertools.islice(
            itertools.combinations(range(k - 1, -1, -1), n + 1),
            math.comb(k, n + 1) - math.comb(evaluated, n + 1))
        for rows in _index_chunks(combos, n + 1):
            rows = rows[:, ::-1]
            lam = lambda_nd_batch(pos[rows], np.broadcast_to(own, (len(rows), 3)),
                                  n, xi, on_degenerate="nan")
            rows = rows[np.all(lam[:, : n + 1] > rho, axis=1)]
            if not len(rows):
                continue
            sums = dists[rows].sum(axis=1)
            low = sums.min()
            tied = min(tuple(sorted(int(i) for i in ids[r]))
                       for r in rows[sums == low])
            if low < best_sum or (low == best_sum and tied < best):
                best_sum, best = low, tied
        evaluated = k
        # A tuple using any unseen candidate costs at least its distance
        # plus the n smallest distances; stop once that cannot win.
        if k == total or (best is not None and dists[k] + dists[:n].sum() >= best_sum):
            return best
        k = min(2 * k, total)


def _index_chunks(combos, width):
    """The index tuples of combos as (<= _CHUNK, width) arrays."""
    flat = itertools.chain.from_iterable(combos)
    while len(rows := np.fromiter(itertools.islice(flat, _CHUNK * width), np.intp)):
        yield rows.reshape(-1, width)


def select_leaders(boundary, ref_positions, n: int = 2, override=None):
    """Pick the n+1 leader agents from the boundary set.

    With an override: validate membership, count and non-degeneracy and
    return it unchanged (order preserved). Otherwise choose the tuple of
    boundary agents maximizing simplex measure (triangle area for n=2,
    tetrahedron volume for n=3), ties broken by lexicographically
    smallest id tuple. The measure is the weight kernel's |det|, which
    grows with it: |a x b|^2 for n = 2, the triple product for n = 3.
    An override is degenerate when geometry._full_rank says so.
    """
    _check_n(n)
    boundary = set(boundary)
    if override is not None:
        override = tuple(override)
        if len(override) != n + 1:
            raise SelectionError(f"leader override needs {n + 1} ids, got {len(override)}")
        if len(set(override)) != len(override):
            raise SelectionError(f"leader override has duplicate ids: {override}")
        missing = [i for i in override if i not in boundary]
        if missing:
            raise SelectionError(f"leader override ids not on boundary: {missing}")
        pts = np.stack([as_position(ref_positions[i]) for i in override])
        _, det, _, scale = _barycentric(pts[None], pts[:1], n)
        if not _full_rank(det, scale, n)[0]:
            raise SelectionError(f"leader override {override} is degenerate")
        return override
    cands = sorted(boundary)
    if len(cands) < n + 1:
        raise SelectionError(f"boundary has {len(cands)} agents, need {n + 1}")
    pos = np.stack([as_position(ref_positions[i]) for i in cands])
    best, best_measure = None, 0.0
    for rows in _index_chunks(itertools.combinations(range(len(cands)), n + 1), n + 1):
        measure = np.abs(_barycentric(pos[rows], pos[rows[:, 0]], n)[1])
        top = int(np.argmax(measure))
        if measure[top] > best_measure:
            best, best_measure = rows[top], measure[top]
    if best is None:
        raise SelectionError("boundary simplexes are all degenerate")
    return tuple(cands[k] for k in best)


def build_weight_matrices(leaders, followers, in_neighbors, weights):
    """Assemble W = [B | A], D = -I + A and W_L = -D^-1 B.

    Columns follow leaders-then-followers order; row j belongs to
    followers[j]. Raises NetworkError when D is singular or not Hurwitz
    (a follower subset feeding only on itself).
    """
    leaders, followers = tuple(leaders), tuple(followers)
    order = leaders + followers
    col = {a: k for k, a in enumerate(order)}
    f_count, l_count = len(followers), len(leaders)
    W = np.zeros((f_count, len(order)))
    for j, fid in enumerate(followers):
        for nid in in_neighbors[fid]:
            W[j, col[nid]] = weights[(fid, nid)]
    B = W[:, :l_count].copy()
    A = W[:, l_count:].copy()
    D = -np.eye(f_count) + A
    eig = np.linalg.eigvals(D)
    if np.any(eig.real >= 0.0):
        raise NetworkError(
            f"D is not Hurwitz (max real eigenvalue {eig.real.max():.3e}); "
            "followers are not connected through to the leaders"
        )
    try:
        W_L = np.linalg.solve(D, -B)
    except np.linalg.LinAlgError as exc:
        raise NetworkError("singular D: disconnected followers") from exc
    return W, A, B, D, W_L


def _xi_max(Dinv, B):
    """Xi_max = max over follower rows of (-sum_j D^-1_lj + sum_j B_lj)."""
    return float(np.max(-Dinv.sum(axis=1) + np.asarray(B, dtype=float).sum(axis=1)))


def _delta(xi_max, delta_x, delta_y, delta_z):
    """Delta = Xi_max * sqrt(dx^2 + dy^2 + dz^2)."""
    return xi_max * float(np.sqrt(delta_x ** 2 + delta_y ** 2 + delta_z ** 2))


def deviation_bound(D, B, delta_x, delta_y, delta_z):
    """(Xi_max, Delta): worst-case amplification and 3-D deviation bound.

    Xi_max = max over follower rows of (-sum_j D^-1_lj + sum_j B_lj);
    Delta = Xi_max * sqrt(dx^2 + dy^2 + dz^2) bounds every agent's
    distance to its global desired position when all local tracking
    errors stay within the per-axis tolerances.
    """
    for name, v in (("delta_x", delta_x), ("delta_y", delta_y), ("delta_z", delta_z)):
        if v < 0:
            raise ValueError(f"{name} must be >= 0, got {v}")
    try:
        Dinv = np.linalg.inv(np.asarray(D, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NetworkError("singular D in deviation_bound") from exc
    xi_max = _xi_max(Dinv, B)
    return xi_max, _delta(xi_max, delta_x, delta_y, delta_z)


def build_reference_configuration(ref_positions, n: int = 2, rho: float = None,
                                  xi: float = DEFAULT_XI, leader_override=None):
    """Full network build: search each agent's enclosing simplex (none
    means boundary), select leaders, wire followers.

    Validates the structural invariants the rest of the library leans
    on: weight rows sum to one, D Hurwitz, -D^-1 entrywise nonnegative,
    W_L rows sum to one.
    """
    return _wire(_search(ref_positions, n, rho, xi), leader_override)


def _search(ref_positions, n, rho, xi):
    """The build's search: (n, rho, xi, ids, positions, d_min, best), where
    best maps each agent id to its enclosing simplex, None if boundary."""
    _check_n(n)
    rho = DEFAULT_RHO[n] if rho is None else rho
    if not (0.0 < rho < 1.0 / (n + 1)):
        raise ValueError(f"rho must lie in (0, 1/{n + 1}) for n={n}, got {rho}")
    ids = sorted(ref_positions)
    pos = np.stack([as_position(ref_positions[i]) for i in ids])
    if len(ids) < n + 2:
        raise DegeneracyError(f"need at least {n + 2} agents for n={n}, got {len(ids)}")
    # one distance table: d_min, the coincidence check, each search's order
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    d_min = float(dist.min())
    if d_min <= 1e-12:
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        raise DegeneracyError(f"agents {ids[i]} and {ids[j]} are coincident")
    id_arr = np.array(ids)
    best = {agent: _enclosing_simplex(i, id_arr, pos, dist[i], n, rho, xi)
            for i, agent in enumerate(ids)}
    return n, rho, xi, ids, dict(zip(ids, pos)), d_min, best


def _wire(search, leader_override=None):
    """The network of a _search: leaders (the override, else selected),
    followers, static weights and matrices, its invariants checked."""
    n, rho, xi, ids, positions, d_min, best = search
    interior = frozenset(a for a, tup in best.items() if tup is not None)
    boundary = frozenset(ids) - interior
    leaders = select_leaders(boundary, positions, n, leader_override)
    followers = tuple(i for i in ids if i not in set(leaders))
    # boundary followers feed on the leaders directly
    in_neighbors = {fid: best[fid] or tuple(leaders) for fid in followers}
    # every follower's static weights in one solve
    static = lambda_nd_batch(
        np.array([[positions[a] for a in in_neighbors[fid]]
                  for fid in followers]),
        np.array([positions[fid] for fid in followers]), n, xi)
    weights = {(fid, nid): float(w)
               for fid, row in zip(followers, static)
               for nid, w in zip(in_neighbors[fid], row)}
    W, _, B, D, W_L = build_weight_matrices(leaders, followers, in_neighbors, weights)
    row_err = np.abs(W.sum(axis=1) - 1.0)
    if np.any(row_err > 1e-9):
        raise NetworkError(f"weight row sum off by {row_err.max():.3e}")
    Dinv = np.linalg.inv(D)
    if np.any(-Dinv < -1e-12):
        raise NetworkError("-D^-1 has negative entries")
    wl_err = np.abs(W_L.sum(axis=1) - 1.0)
    if np.any(wl_err > 1e-9):
        raise NetworkError(f"W_L row sum off by {wl_err.max():.3e}")
    return ReferenceConfiguration(
        n=n, rho=rho, xi=xi, ids=tuple(ids), ref_positions=positions,
        boundary=boundary, interior=interior, leaders=tuple(leaders),
        followers=followers, in_neighbors=in_neighbors, weights=weights,
        W=W, B=B, D=D, W_L=W_L, Xi_max=_xi_max(Dinv, B), d_min=d_min,
    )
