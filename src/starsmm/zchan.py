"""Exact algebra for single-qubit channels that mix Z-rotations.

Every channel manipulated by the rotation-gate error models in this package
is a convex mixture of logical Z-rotations ``R(phi) = exp(i*phi*Z)``.  Such
mixtures compose exactly (angles add branch-wise, and branches merge only
where their reduced angles are equal, however small the angles), which
makes this module usable as a closed-form oracle for the analytic error
rates derived elsewhere: any claimed stochastic-Z rate can be checked
against the channel's exact coherence factor, and so can the coherent
remainder that the rate leaves out.

Conventions: ``R(phi)|+> = cos(phi)|+> + i sin(phi)|->``; as a channel,
``R`` has period pi (global phase drops out), so branch angles are stored
reduced into ``(-pi/2, pi/2]``.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass

WEIGHT_TOL = 1e-12

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
            if not (-_HALF_PI < phi <= _HALF_PI + 1e-15):
                raise ValueError(f"branch angle {phi!r} is not pi-reduced: outside (-pi/2, pi/2]")
            total += w
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"branch weights sum to {total!r}, expected 1")


def _consolidate(pairs: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Add the weights of branches whose reduced angles are equal; sort by angle.

    Weights add in input order.  ``+0.0`` and ``-0.0`` are one angle, and
    ``-pi/2`` reduces to ``pi/2``; no other two angles merge.
    """
    merged: dict[float, float] = {}
    for w, phi in pairs:
        if w != 0.0:
            phi = reduce_angle(phi)
            merged[phi] = merged.get(phi, 0.0) + w
    if not merged:
        raise ValueError("mixture has no branches with non-zero weight")
    return tuple((merged[phi], phi) for phi in sorted(merged))


def mixture(pairs: list[tuple[float, float]] | tuple[tuple[float, float], ...]) -> RotationMixture:
    """Build a normalized mixture from (weight, angle) pairs."""
    return RotationMixture(_consolidate(list(pairs)))


def pure_rotation(angle: float) -> RotationMixture:
    """The unitary channel of ``R(angle)`` as a single-branch mixture."""
    return RotationMixture(((1.0, reduce_angle(angle)),))


def compose(a: RotationMixture, b: RotationMixture) -> RotationMixture:
    """Channel composition: branch-wise angle convolution.

    Mixtures of Z-rotations commute, so ``compose(a, b)`` and
    ``compose(b, a)`` are the same channel.
    The result is exact up to the rounding of each angle sum: weights add
    only where the reduced angles are equal.
    """
    pairs = [
        (wa * wb, pa + pb)
        for wa, pa in a.branches
        for wb, pb in b.branches
    ]
    return RotationMixture(_consolidate(pairs))


# ---------------------------------------------------------------------------
# Channel diagnostics against the stochastic-Z model
# ---------------------------------------------------------------------------

def coherence_factor(channel: RotationMixture, target: float) -> complex:
    """sum_j w_j exp(2i (phi_j - target)).

    The real part encodes the twirled Z-flip rate, the imaginary part the
    surviving coherent error; the factor multiplies under composition.
    """
    return functools.reduce(
        operator.add, (w * cmath.exp(2.0j * (phi - target)) for w, phi in channel.branches))


def twirled_z_error(channel: RotationMixture, target: float) -> float:
    """Pauli-twirled Z-flip probability relative to the target rotation.

    Equals ``sum_j w_j sin^2(phi_j - target)``, the stochastic-Z coefficient
    of the Pauli twirl of ``compose(channel, R(-target))``.
    """
    p = functools.reduce(
        operator.add, (w * math.sin(phi - target) ** 2 for w, phi in channel.branches))
    return min(max(p, 0.0), 1.0)


def worst_case_vs_pauli_model(channel: RotationMixture, target: float) -> float:
    """Largest trace distance to the stochastic-Z model over Pauli eigenstates.

    The model is ``rho -> (1-p) sigma + p Z sigma Z`` with
    ``sigma = R(target) rho R(target)^dag`` and ``p = twirled_z_error``.
    The return value bounds how far the channel is from its own Pauli
    approximation, i.e. the coherent remainder the twirled rate ignores.

    With ``c = coherence_factor(channel, target)`` this is ``|Im c| / 2``.
    Both maps keep the diagonal of ``rho``.  The channel sends ``rho01`` to
    ``rho01 e^{2i target} c`` and the model to ``rho01 e^{2i target} (1 - 2p)``,
    with ``1 - 2p = Re c``; the difference ``rho01 e^{2i target} i Im c`` is
    the off-diagonal of a traceless Hermitian matrix, whose trace distance is
    its modulus.  ``|rho01| = 1/2`` on the X and Y eigenstates and 0 on the
    Z eigenstates.
    """
    return 0.5 * abs(coherence_factor(channel, target).imag)
