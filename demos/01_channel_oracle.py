# Exact algebra for Z-rotation mixtures, and why it works as an oracle.
#
# Every channel in the rotation-gate error models is a convex mixture of
# Z-rotations, so composition is exact (angles add), and any analytic
# stochastic-Z rate can be checked against the exact coherence factor
# c = sum_j w_j exp(2i (phi_j - target)): the twirled rate is (1 - Re c)/2
# and the coherent remainder |Im c|/2.  The last lines redo the channel's
# action on |+><+| as 2x2 matrices.
import cmath
import math

import numpy as np

from starsmm import zchan

# a noisy gate: mostly the target rotation, sometimes an over-rotation
target = 0.05
noisy = zchan.mixture([(0.999, target), (0.001, target + 0.3)])

print("branches:", noisy.branches)
print("twirled Z-flip rate:", zchan.twirled_z_error(noisy, target))
print("coherent remainder :", zchan.worst_case_vs_pauli_model(noisy, target))

# symmetric over-rotation pairs twirl to an exactly Pauli channel
sym = zchan.mixture([(0.998, target), (0.001, target + 0.3), (0.001, target - 0.3)])
print("\nsymmetric pair:")
print("twirled rate       :", zchan.twirled_z_error(sym, target))
print("analytic 2q sin^2  :", 2 * 0.001 * math.sin(0.3) ** 2)
print("coherent remainder :", zchan.worst_case_vs_pauli_model(sym, target))

# composition is exact: coherence factors multiply
a = zchan.mixture([(0.9, 0.0), (0.1, 0.2)])
b = zchan.mixture([(0.8, 0.1), (0.2, -0.3)])
za, zb = zchan.coherence_factor(a, 0.0), zchan.coherence_factor(b, 0.0)
zc = zchan.coherence_factor(zchan.compose(a, b), 0.0)
print("\ncomposition check  :", abs(zc - za * zb))

# the density-matrix route agrees state by state: R(phi) rho R(phi)^dag
# multiplies rho[0,1] by exp(2i phi) and keeps the diagonal
v = np.array([1.0, 1.0], dtype=complex)
v /= np.linalg.norm(v)
rho = np.outer(v, v.conj())
out = np.zeros((2, 2), dtype=complex)
for w, phi in zchan.compose(a, b).branches:
    phase = cmath.exp(2.0j * phi)
    out += w * np.array([[rho[0, 0], rho[0, 1] * phase],
                         [rho[1, 0] * phase.conjugate(), rho[1, 1]]])
print("rho_out[0,1]       :", out[0, 1])
print("trace preserved    :", np.trace(out).real)
