"""Tour of the dimension-aware weight operator.

Every query point against a simplex yields weights that sum to one and
reproduce the point; sign of the smallest weight decides containment.
Planar configurations get a virtual fourth vertex whose weight is zero
for any in-plane query, so one operator serves n = 2 and n = 3.
"""
import numpy as np

from contiform import geometry

tri = np.array([[0.0, 0.0, 0.0],
                [4.0, 0.0, 0.0],
                [0.0, 4.0, 0.0]])

print("triangle vertices:")
print(tri)

for label, point in [("centroid", np.array([4 / 3, 4 / 3, 0.0])),
                     ("edge midpoint", np.array([2.0, 0.0, 0.0])),
                     ("outside", np.array([5.0, 5.0, 0.0]))]:
    lam = geometry.lambda_nd(tri[0], tri[1], tri[2], None, point, n=2)
    inside = lam[:3].min() >= 0.0
    print(f"{label:>14}: weights {np.round(lam, 6)} "
          f"sum {lam.sum():.12f} inside={inside}")

# out-of-plane queries are projected onto the triangle plane first
raised = np.array([1.0, 1.0, 3.0])
lam = geometry.lambda_nd(tri[0], tri[1], tri[2], None, raised, n=2)
recon = lam[0] * tri[0] + lam[1] * tri[1] + lam[2] * tri[2]
print(f"\nraised query {raised} -> virtual weight {lam[3]:.3e}, "
      f"plane reconstruction {np.round(recon, 9)}")

tet = np.array([[0.0, 0.0, 0.0],
                [3.0, 0.0, 0.0],
                [0.0, 3.0, 0.0],
                [0.0, 0.0, 3.0]])
query = np.array([0.5, 0.6, 0.7])
lam = geometry.lambda_nd(*tet, query, n=3)
print(f"\ntetrahedron query {query}: weights {np.round(lam, 6)}")
print(f"reconstruction error "
      f"{np.linalg.norm(lam @ tet - query):.3e}")
