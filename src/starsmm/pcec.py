"""Higher-order probabilistic coherent error cancellation (PCEC).

The TMR output applied through gate teleportation realizes the noisy
channel ``N = sum_j qbar_j R(theta_j)``.  Sampling the inverse of each
over-rotation with the same probabilities turns the coherent error into a
stochastic Z-flip; this module builds that cancellation channel from one
row ``(thetas, qbars)`` of :func:`starsmm.tmr.branch_table`, and the
residual flip rate that serves as the per-trial error currency, per model
and as arrays over a branch table; the array form can also cancel only the
leading branch, as the previous architecture generation did.  The exact
flip rate of the pair has a closed form too, which the SMM enumerator
reads; both refuse a trial outside PCEC's regime.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from . import zchan
from .tmr import TmrOutputModel
from .zchan import RotationMixture


class ModelRegimeError(ValueError):
    """The branch model sits outside the perturbative regime PCEC assumes."""


def _check_regime(error_weight) -> None:
    """Raise ModelRegimeError where a trial's error weight sum_{j>=1} qbar_j reaches 1/2.

    The one statement of PCEC's regime, for one weight or an array of them;
    :func:`build_canceller` and :func:`_defects` both apply it.
    """
    if (worst := np.max(error_weight, initial=0.0)) >= 0.5:
        raise ModelRegimeError(f"total error weight {worst:.3g} >= 1/2; cancellation model invalid")


def build_noisy_channel(thetas, qbars) -> RotationMixture:
    """The teleported-gate channel of one branch-table row: branches (qbar_j, theta_j)."""
    return zchan.mixture(list(zip(qbars, thetas)))


def build_canceller(thetas, qbars) -> RotationMixture:
    """The sampled inverse-rotation channel of one branch-table row.

    Branches: identity with weight 1 - sum_{j>=1} qbar_j, and -Delta_j with
    weight qbar_j, where Delta_j = theta_j - theta_0.  The feedback
    rotations are treated as exact; their synthesis cost is charged in the
    digital-stage budget, not here.
    """
    err = functools.reduce(operator.add, qbars[1:])
    _check_regime(err)
    pairs = [(1.0 - err, 0.0)]
    pairs += [(qbar, -(theta_j - thetas[0])) for qbar, theta_j in zip(qbars[1:], thetas[1:])]
    return zchan.mixture(pairs)


def residual_rate(model: TmrOutputModel) -> float:
    """:func:`residual_rates` of one model's ``(branch_thetas, branch_qbars)`` row."""
    return residual_rates(np.array(model.branch_thetas), np.array(model.branch_qbars)).item()


def residual_rates(
    thetas: np.ndarray, qbars: np.ndarray, higher_orders: bool = True
) -> np.ndarray:
    """Post-cancellation stochastic-Z rate 2 sum_{j>=1} qbar_j sin^2(Delta_j) per branch-table row.

    Delta_j = theta_j - theta_0, summed over the branch (last) axis of a
    :func:`starsmm.tmr.branch_table`.  Agrees with the exact twirled-Z rate of
    canceller-after-noisy up to O((sum qbar_j)^2) cross terms.  With
    ``higher_orders`` false only the leading branch counts, 2 qbar_1 sin^2(Delta_1):
    the comparison mode for the earlier architecture generation, which
    cancelled only that branch.
    """
    last = None if higher_orders else 2
    deltas = thetas[..., 1:last] - thetas[..., :1]
    return 2.0 * (qbars[..., 1:last] * np.sin(deltas) ** 2).sum(axis=-1)


def _defects(thetas: np.ndarray, qbars: np.ndarray) -> np.ndarray:
    """Twice the exact Z-flip rate of canceller . noisy, per row of a branch table.

    With Delta_j = theta_j - theta_0 and the row's weights taken to sum to 1
    (the canceller's identity weight 1 - sum_{j>=1} qbar_j is then qbar_0),
    the noisy channel's coherence factor is g = 1 - h,
    h = sum_{j>=1} qbar_j (2 sin^2 Delta_j - i sin 2 Delta_j), and the
    canceller's is conj(g), so the pair's is |g|^2 and the defect
    1 - |g|^2 = 2 Re h - |h|^2, formed without cancellation.  Re h is the
    residual, but it is computed here, not read from :func:`residual_rates`,
    which this route checks.  Rows outside PCEC's regime raise
    :class:`ModelRegimeError`.
    """
    deltas, qbars = thetas[..., 1:] - thetas[..., :1], qbars[..., 1:]
    _check_regime(qbars.sum(axis=-1))
    re_h = 2.0 * (qbars * np.sin(deltas) ** 2).sum(axis=-1)
    im_h = (qbars * np.sin(2.0 * deltas)).sum(axis=-1)
    return 2.0 * re_h - (re_h ** 2 + im_h ** 2)


def composed_error_channel(thetas, qbars) -> RotationMixture:
    """canceller . noisy of one row, in the target frame (R(-theta_0) folded in)."""
    net = zchan.compose(build_canceller(thetas, qbars), build_noisy_channel(thetas, qbars))
    return zchan.compose(net, zchan.pure_rotation(-thetas[0]))

