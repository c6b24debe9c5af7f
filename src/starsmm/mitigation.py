"""Probabilistic-error-cancellation cost accounting.

Residual stochastic-Z errors on T-gates and analog rotations are removed
in expectation by sampling the inverse quasi-probability map.  One budget
P_total = sum of per-gate error rates prices a whole circuit at the sampling
factor e^(4 P_total) (:func:`sampling_price`), so P_total <~ 1 bounds the
feasible circuit size.  The STAR bounds and the TE-PAI estimates in
:mod:`starsmm.tepai` both charge their rotations through this module.

Four architecture variants are compared: the original injection-based
design (v1), the TMR-based refinement (v2), the SMM-based design (v3), and
a cultivation-backed Clifford+T architecture (T-gate synthesis for every
rotation).  Their comparison setup is stated here only: ``P_PH``, ``P_M``
and ``V2_RUS_K``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

from . import tmr

ARCHITECTURES = ("v1", "v2", "v3", "ftqc-cultivation")

P_PH, P_M = 1e-3, 2e-9       # physical and cultivated magic-state error rates
V2_RUS_FACTOR = 1.6          # published reference value at k = V2_RUS_K, used verbatim
V2_RUS_K = 7
INJECTION_RATE = 2.0 / 15.0  # [[4,1,1,2]] injection error per trial / p_ph


def synthesis_t_count(delta: float) -> int:
    """T-count of one synthesized rotation at accuracy delta: ceil(3 log2(1/delta)).

    Written as ceil(-3 log2 delta), so a subnormal delta does not overflow 1/delta.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return math.ceil(-3.0 * math.log2(delta))


@dataclass(frozen=True)
class CircuitProfile:
    """Gate counts of a Clifford + T + rotation circuit.

    ``rotations`` lists (angle, count) pairs with angles in (0, pi/4].
    Architecture constants default to the comparison setup, P_PH and P_M;
    the cultivation variant synthesizes at accuracy delta = p_m.
    """

    n_t: int
    rotations: tuple[tuple[float, int], ...] = ()
    architecture: str = "v3"
    p_ph: float = P_PH
    p_m: float = P_M

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}; expected one of {ARCHITECTURES}"
            )
        if not self.n_t >= 0:
            raise ValueError("n_t must be non-negative")
        for name in ("p_ph", "p_m"):
            if not 0.0 <= (value := getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        for angle, count in self.rotations:
            if not count >= 0:
                raise ValueError("rotation counts must be non-negative")
            if not 0.0 < angle <= tmr.MAX_THETA:
                raise ValueError(f"rotation angle {angle!r} outside (0, pi/4]")

    @property
    def n_r(self) -> int:
        return sum(count for _, count in self.rotations)


AlphaModel = Callable[[float], float]


def rotation_p_total(
    count: float, theta: float, alpha_model: AlphaModel | float, p_ph: float
) -> float:
    """P_total of ``count`` RUS rotations at angle theta: count alpha(theta) theta p_ph.

    ``alpha_model`` is a constant RUS factor or a callable theta -> alpha.
    The angle is not range-checked here: TE-PAI rotates by angles up to pi/2.
    """
    alpha = alpha_model(theta) if callable(alpha_model) else alpha_model
    return count * alpha * theta * p_ph


def sampling_price(p_total: float) -> float:
    """Sampling-cost factor gamma_total^2 = e^(4 P_total) of mitigating a budget P_total.

    Budgets past P_total ~ 177 overflow a float and are priced inf, not raised.
    """
    try:
        return math.exp(4.0 * p_total)
    except OverflowError:
        return math.inf


def total_budget(
    profile: CircuitProfile,
    alpha_model: AlphaModel | float | None = None,
) -> float:
    """P_total = sum of per-gate error rates of one circuit.

    Its sampling price is ``sampling_price(P_total)`` and the circuit is
    feasible while P_total <= 1.  For the v3 architecture ``alpha_model``
    supplies alpha_RUS(theta), either as a constant or a callable.
    """
    arch, p_ph, p_m = profile.architecture, profile.p_ph, profile.p_m
    if arch == "v1":
        # every non-Clifford gate via injection; rotations pay the RUS factor 2
        parts = [INJECTION_RATE * p_ph * profile.n_t]
        parts += [2.0 * INJECTION_RATE * p_ph * c for _, c in profile.rotations]
    elif arch == "v2":
        parts = [INJECTION_RATE * p_ph * profile.n_t]
        parts += [rotation_p_total(c, a, V2_RUS_FACTOR, p_ph) for a, c in profile.rotations]
    elif arch == "v3":
        if alpha_model is None:
            raise ValueError("v3 requires an alpha model (constant or callable)")
        parts = [p_m * profile.n_t]
        parts += [rotation_p_total(c, a, alpha_model, p_ph) for a, c in profile.rotations]
    else:  # ftqc-cultivation: each rotation synthesized from T-gates
        parts = [p_m * (profile.n_t + synthesis_t_count(p_m) * profile.n_r)]
        parts += [p_m * c for _, c in profile.rotations]
    return functools.reduce(operator.add, parts)


def feasible_boundary(
    architecture: str,
    theta_star: float,
    n_t_grid,
    p_ph: float = P_PH,
    p_m: float = P_M,
    alpha_model: AlphaModel | float | None = None,
) -> list[tuple[float, float]]:
    """The P_total = 1 frontier: for each N_T, the admissible N_R.

    Both per-gate costs are N-independent, so the frontier is the exact
    solution of a linear equation; returns 0 once N_T alone is infeasible,
    and ``inf`` before that when the rotation cost rate underflows to 0.
    """

    def cost(n_t: int, rotations: tuple[tuple[float, int], ...]) -> float:
        profile = CircuitProfile(n_t, rotations, architecture, p_ph, p_m)
        return total_budget(profile, alpha_model)

    a_t = cost(1, ())
    a_r = cost(0, ((theta_star, 1),))
    curve = []
    for n_t in n_t_grid:
        if not n_t >= 0:
            raise ValueError("N_T must be non-negative")
        slack = 1.0 - a_t * n_t
        if slack <= 0.0:
            n_r = 0.0
        elif a_r == 0.0:  # rotations that cost nothing fit without bound
            n_r = math.inf
        else:
            n_r = slack / a_r
        curve.append((float(n_t), n_r))
    return curve
