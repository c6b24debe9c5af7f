"""Exact algebra for single-qubit channels that mix Z-rotations.

Every channel manipulated by the rotation-gate error models in this package
is a convex mixture of logical Z-rotations ``R(phi) = exp(i*phi*Z)``.  Such
mixtures compose exactly (angles add branch-wise), which makes this module
usable as a closed-form oracle for the analytic error rates derived
elsewhere: any claimed stochastic-Z rate can be checked against the exact
2x2 density-matrix action of the channel.

Conventions: ``R(phi)|+> = cos(phi)|+> + i sin(phi)|->``; as a channel,
``R`` has period pi (global phase drops out), so branch angles are stored
reduced into ``(-pi/2, pi/2]``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

WEIGHT_TOL = 1e-12
ANGLE_MERGE_TOL = 1e-14

_HALF_PI = 0.5 * math.pi


def reduce_angle(phi: float) -> float:
    """Reduce a rotation angle modulo pi into ``(-pi/2, pi/2]``."""
    if not math.isfinite(phi):
        raise ValueError(f"rotation angle must be finite, got {phi!r}")
    r = math.remainder(phi, math.pi)
    if r <= -_HALF_PI:
        r += math.pi
    return r


@dataclass(frozen=True)
class RotationMixture:
    """Convex mixture of Z-rotations: branches of (weight, angle).

    Weights sum to one (tolerance 1e-12) and angles are stored pi-reduced.
    Instances are immutable; build them with :func:`pure_rotation`,
    :func:`mixture` or :func:`compose`.
    """

    branches: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise ValueError("mixture needs at least one branch")
        total = 0.0
        for w, phi in self.branches:
            if w < 0.0:
                raise ValueError(f"branch weight must be non-negative, got {w!r}")
            if abs(phi - reduce_angle(phi)) > 1e-15 and abs(phi) <= _HALF_PI:
                # allow the exact boundary representative only
                raise ValueError(f"branch angle {phi!r} is not pi-reduced")
            if not (-_HALF_PI < phi <= _HALF_PI + 1e-15):
                raise ValueError(f"branch angle {phi!r} outside (-pi/2, pi/2]")
            total += w
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"branch weights sum to {total!r}, expected 1")


def _consolidate(pairs: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Merge branches whose reduced angles agree within ANGLE_MERGE_TOL."""
    pairs = [(w, reduce_angle(phi)) for w, phi in pairs if w != 0.0]
    if not pairs:
        raise ValueError("mixture has no branches with non-zero weight")
    pairs.sort(key=lambda wp: wp[1])
    merged: list[list[float]] = []
    for w, phi in pairs:
        if merged and phi - merged[-1][1] <= ANGLE_MERGE_TOL:
            tot = merged[-1][0] + w
            merged[-1][1] = (merged[-1][0] * merged[-1][1] + w * phi) / tot
            merged[-1][0] = tot
        else:
            merged.append([w, phi])
    # wrap-around: -pi/2+eps and +pi/2 are the same channel modulo pi
    if len(merged) > 1 and (merged[-1][1] - merged[0][1]) >= math.pi - ANGLE_MERGE_TOL:
        w_lo, phi_lo = merged.pop(0)
        merged[-1][0] += w_lo
        del phi_lo
    return tuple((w, phi) for w, phi in merged)


def mixture(pairs: list[tuple[float, float]] | tuple[tuple[float, float], ...]) -> RotationMixture:
    """Build a normalized mixture from (weight, angle) pairs."""
    return RotationMixture(_consolidate(list(pairs)))


def pure_rotation(angle: float) -> RotationMixture:
    """The unitary channel of ``R(angle)`` as a single-branch mixture."""
    return RotationMixture(((1.0, reduce_angle(angle)),))


def compose(a: RotationMixture, b: RotationMixture) -> RotationMixture:
    """Channel composition: branch-wise angle convolution.

    Mixtures of Z-rotations commute, so ``compose(a, b) == compose(b, a)``
    and the result is exact up to the angle-merge tolerance.
    """
    pairs = [
        (wa * wb, pa + pb)
        for wa, pa in a.branches
        for wb, pb in b.branches
    ]
    return RotationMixture(_consolidate(pairs))


# ---------------------------------------------------------------------------
# Density matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityMatrix2:
    """A 2x2 density matrix: Hermitian, unit trace, PSD (tolerance 1e-12)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
            raise ValueError("density matrix trace differs from 1 beyond 1e-12")
        if np.min(np.linalg.eigvalsh(m)) < -1e-12:
            raise ValueError("density matrix has an eigenvalue below -1e-12")
        object.__setattr__(self, "matrix", m)


def state_from_vector(vec) -> DensityMatrix2:
    v = np.asarray(vec, dtype=complex).reshape(2)
    v = v / np.linalg.norm(v)
    return DensityMatrix2(np.outer(v, v.conj()))


def plus_state() -> DensityMatrix2:
    return state_from_vector([1.0, 1.0])


def pauli_eigenstates() -> tuple[DensityMatrix2, ...]:
    """The six single-qubit Pauli eigenstates (Z, X and Y bases)."""
    return (
        state_from_vector([1.0, 0.0]),
        state_from_vector([0.0, 1.0]),
        state_from_vector([1.0, 1.0]),
        state_from_vector([1.0, -1.0]),
        state_from_vector([1.0, 1.0j]),
        state_from_vector([1.0, -1.0j]),
    )


def _rotate(rho: np.ndarray, phi: float) -> np.ndarray:
    """exp(i*phi*Z) rho exp(-i*phi*Z) -- acts on off-diagonals only."""
    out = rho.copy()
    phase = cmath.exp(2.0j * phi)
    out[0, 1] = rho[0, 1] * phase
    out[1, 0] = rho[1, 0] * phase.conjugate()
    return out


def apply(channel: RotationMixture, rho: DensityMatrix2) -> DensityMatrix2:
    """Apply the mixture to a state: sum_j w_j R(phi_j) rho R(phi_j)^dag."""
    out = np.zeros((2, 2), dtype=complex)
    for w, phi in channel.branches:
        out += w * _rotate(rho.matrix, phi)
    return DensityMatrix2(out)


def trace_distance(a: DensityMatrix2, b: DensityMatrix2) -> float:
    diff = a.matrix - b.matrix
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


# ---------------------------------------------------------------------------
# Channel diagnostics against the stochastic-Z model
# ---------------------------------------------------------------------------

def coherence_factor(channel: RotationMixture, target: float) -> complex:
    """sum_j w_j exp(2i (phi_j - target)).

    The real part encodes the twirled Z-flip rate, the imaginary part the
    surviving coherent error; the factor multiplies under composition,
    which is what makes exact trajectory enumeration cheap.
    """
    return sum(w * cmath.exp(2.0j * (phi - target)) for w, phi in channel.branches)


def twirled_z_error(channel: RotationMixture, target: float) -> float:
    """Pauli-twirled Z-flip probability relative to the target rotation.

    Equals ``sum_j w_j sin^2(phi_j - target)``, the stochastic-Z coefficient
    of the Pauli twirl of ``compose(channel, R(-target))``.
    """
    p = sum(w * math.sin(phi - target) ** 2 for w, phi in channel.branches)
    return min(max(p, 0.0), 1.0)


def worst_case_vs_pauli_model(channel: RotationMixture, target: float) -> float:
    """Largest trace distance to the stochastic-Z model over Pauli eigenstates.

    The model is ``rho -> (1-p) sigma + p Z sigma Z`` with
    ``sigma = R(target) rho R(target)^dag`` and ``p = twirled_z_error``.
    The return value bounds how far the channel is from its own Pauli
    approximation, i.e. the coherent remainder the twirled rate ignores.
    """
    p = twirled_z_error(channel, target)
    z = np.diag([1.0, -1.0]).astype(complex)
    worst = 0.0
    for rho in pauli_eigenstates():
        sigma = _rotate(rho.matrix, target)
        model = DensityMatrix2((1.0 - p) * sigma + p * (z @ sigma @ z))
        worst = max(worst, trace_distance(apply(channel, rho), model))
    return worst
