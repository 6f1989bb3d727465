"""Transient-weight anomaly detection.

The detector recomputes each follower's weights from actual neighbor
positions. Under any homogeneous deformation the weights are invariant,
so a healthy follower always rates inside its distance-derived bounds;
a frozen agent drifts out as soon as the team moves far enough.
"""
import numpy as np

from contiform import anomaly

side = 4.0
tri = np.array([[0.0, 0.0, 0.0],
                [side, 0.0, 0.0],
                [side / 2, side * np.sqrt(3) / 2, 0.0]])
centroid = tri.mean(axis=0)
static = np.array([1 / 3, 1 / 3, 1 / 3])
delta = 0.3


def rate(nbrs, own):
    """One follower through the batch detector: weights, bounds, verdict."""
    w, lo, hi, healthy = anomaly.evaluate_followers_batch(
        nbrs[None], own[None], static[None], delta, n=2)
    return w[0], lo[0], hi[0], bool(healthy[0])


print("static weights:", np.round(static, 6))
_, lo, hi, _ = rate(tri, centroid)
print(f"bounds at delta {delta}: lo {np.round(lo, 6)} hi {np.round(hi, 6)}")

# healthy motion: the whole pattern translates and shears together
lin = np.array([[1.3, 0.4], [-0.2, 0.9]])
for step in range(4):
    shift = np.array([2.5 * step, 1.0 * step])
    moved = tri.copy()
    moved[:, :2] = tri[:, :2] @ lin.T + shift
    w, _, _, passed = rate(moved, moved.mean(axis=0))
    print(f"t={step}: healthy follower weights {np.round(w, 6)} "
          f"passed={passed}")

# failure: the follower freezes at the centroid while neighbors move on
print("\nfrozen follower, neighbors translating +x:")
frozen = centroid.copy()
for dx in (0.2, 0.6, 1.2, 2.0):
    moved = tri + np.array([dx, 0.0, 0.0])
    w, lo, hi, passed = rate(moved, frozen)
    flags = "".join("." if ok else "x" for ok in (lo <= static) & (static <= hi))
    print(f"  offset {dx:3.1f} m: weights {np.round(w, 4)} "
          f"[{flags}] passed={passed}")

# many followers in one call: 4 tracks the shift, 5 stayed behind
_, _, _, healthy = anomaly.evaluate_followers_batch(
    np.stack([tri + 2.0, tri + 2.0]), np.stack([centroid + 2.0, centroid]),
    np.stack([static, static]), delta, n=2)
print(f"\nfollowers 4, 5 healthy: {healthy.tolist()}")
