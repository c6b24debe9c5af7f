"""The STAR-magic-mutation engine.

One SMM gate runs repeat-until-success teleportation with TMR-prepared
resource states while the RUS angle stays below a threshold, cancelling
over-rotations with PCEC after every trial, and falls back to T-gate
synthesis from cultivated magic states once the angle reaches the
threshold.  This module provides:

* the analytic expectation calculator for the effective error rate, the
  RUS factor ``alpha = P_L / (theta_l * p_ph)`` and the expected clocks:
  one evaluator over :func:`tmr.branch_table` rows, run per gate (with its
  trial table) and as arrays over a sweep, with the same bits either way;
* a Monte-Carlo sampler cross-checking the analytics, which draws stop and
  branch-hit counts and simulates only the trajectories that draw a branch;
* an exact trajectory enumerator in closed form;
* the previous-generation ("fixed inverse-injection") RUS model used to
  calibrate the pass-rate coefficient c_1 against its published RUS factor;
* :func:`in_domain`, the one statement of which gates the model covers.

Accounting convention: every executed trial leaves its post-cancellation
residual in the output state, including the trials a digital-branch
trajectory went through before switching, so

    P_L = sum_i 2^-i r(2^i theta_l)  +  2^-N (delta + p_m N_syn).

The truncated sum sum_{m<=N} 2^-m sum_{i<m} r_i that drops the digital
branch's analog residue underestimates the fixed-threshold RUS factor by
up to 2x and does not reproduce the published factor bands; the enumerator
and sampler estimate the same full-accounting quantity.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import mitigation, pcec, tmr

MAX_THRESHOLD = math.pi / 8.0
MAX_P_M = 1e-3  # largest magic-state error rate the cost model covers

#: Clocks per gate teleportation.
TELEPORT_CLOCKS = 1.0
#: Clocks per digital T-gate when every magic state is paid serially: a
#: cultivated state every 10 clocks on each of two preparation patches, plus
#: its teleportation (10/2 + 1 = 6).
T_GATE_LATENCY_CLOCKS = 10.0 / 2 + TELEPORT_CLOCKS
#: Logical angle at which calibrate_c1 matches the octave-averaged
#: previous-generation RUS factor to its published value.
CALIBRATION_ANCHOR = 1e-5
#: The octave above CALIBRATION_ANCHOR that calibrate_c1 averages over.
_OCTAVE = tuple(CALIBRATION_ANCHOR * 2.0 ** (j / 16.0) for j in range(16))


def n_rus(theta_l: float, theta_th: float) -> int:
    """Number of analog RUS trials before the digital switch: ceil(log2 r), 0 at theta_l = 0."""
    if not 0.0 <= theta_l <= theta_th > 0.0:
        raise ValueError(
            f"need 0 <= theta_l <= theta_th > 0, got theta_l={theta_l!r}, theta_th={theta_th!r}"
        )
    # a difference of logs, which no subnormal theta_l overflows; snap exact powers of two
    return max(0, math.ceil(math.log2(theta_th) - math.log2(theta_l) - 1e-12)) if theta_l else 0


def in_domain(theta_l, theta_th) -> np.ndarray:
    """Elementwise mask of the gates the model covers: |theta_l| <= theta_th <= pi/8, theta_th > 0.

    theta_l = 0 is the identity gate; NaN and infinite angles are outside.  The
    pi/8 cap has a 1e-15 slack for thresholds computed as ratio * |theta_l|.
    """
    theta_l, theta_th = np.asarray(theta_l, dtype=float), np.asarray(theta_th, dtype=float)
    return (theta_th > 0.0) & (theta_th <= MAX_THRESHOLD + 1e-15) & (np.abs(theta_l) <= theta_th)


def _check_domain(theta_l, theta_th, p_m: float, timing_mode: str) -> None:
    """Raise ValueError unless every gate (theta_l, theta_th) is :func:`in_domain`.

    ``SmmConfig`` and :func:`error_rates` both call this, so one gate and a
    sweep accept the same gates.
    """
    outside = ~in_domain(theta_l, theta_th)
    if outside.any():
        theta_l, theta_th = np.broadcast_arrays(theta_l, theta_th)
        raise ValueError(
            f"need |theta_l| <= theta_th <= pi/8 and theta_th > 0, got "
            f"theta_l={float(theta_l[outside][0])!r}, theta_th={float(theta_th[outside][0])!r}"
        )
    if not 0.0 <= p_m <= MAX_P_M:
        raise ValueError(f"p_m must lie in [0, {MAX_P_M:g}], got {p_m!r}")
    if timing_mode not in ("pipelined", "latency"):
        raise ValueError(f"unknown timing_mode {timing_mode!r}")


@dataclass(frozen=True)
class SmmConfig:
    """Inputs of one SMM gate.

    Exactly one of ``theta_th`` (fixed threshold) or ``threshold_ratio``
    (theta_th = ratio * |theta_l|) must be given.  ``timing_mode``:

    * ``"pipelined"`` (default): state preparation is hidden behind ongoing
      computation (fast-block layout with dedicated prep patches); each
      teleportation costs ``TELEPORT_CLOCKS``.
    * ``"latency"``: every preparation is paid serially (the two-patch
      setup); analog trials cost supply + teleport and each digital T-gate
      costs ``T_GATE_LATENCY_CLOCKS``.
    """

    theta_l: float
    tmr_params: tmr.TmrParams
    theta_th: float | None = None
    threshold_ratio: float | None = None
    p_m: float = mitigation.P_M
    include_higher_orders: bool = True
    timing_mode: str = "pipelined"

    def __post_init__(self) -> None:
        if (self.theta_th is None) == (self.threshold_ratio is None):
            raise ValueError("set exactly one of theta_th and threshold_ratio")
        _check_domain(self.theta_l, self.resolved_threshold(), self.p_m, self.timing_mode)

    def resolved_threshold(self) -> float:
        if self.theta_th is not None:
            return self.theta_th
        return self.threshold_ratio * abs(self.theta_l)


@dataclass(frozen=True)
class TrialRow:
    """Per-trial breakdown: i-th analog trial at angle 2^i * theta_l.

    ``thetas``/``qbars`` are the trial's :func:`tmr.branch_table` row,
    theta_j and qbar_j for j = 0..j_max.
    """

    index: int
    theta_rus: float
    thetas: tuple[float, ...]
    qbars: tuple[float, ...]
    residual: float
    clocks: float


@dataclass(frozen=True)
class SmmReport:
    """Analytic outputs of one SMM gate."""

    n_rus: int
    p_switch: float
    p_analog: float
    p_digital: float
    n_syn: int
    p_l: float
    alpha_rus: float
    expected_clocks: float
    trials: tuple[TrialRow, ...]
    out_of_regime: bool


def _analog_clocks(timing_mode: str, p_ideal):
    if timing_mode == "pipelined":
        return TELEPORT_CLOCKS
    return 1.0 / p_ideal + TELEPORT_CLOCKS


def _digital_clocks(timing_mode: str, n_syn):
    if timing_mode == "pipelined":
        return n_syn * TELEPORT_CLOCKS
    return n_syn * T_GATE_LATENCY_CLOCKS


def _t_count(mag: float, n: int, delta: float) -> int:
    """``mitigation.synthesis_t_count(delta)`` (0 at delta = 0); a refusal names the gate."""
    try:
        return mitigation.synthesis_t_count(delta) if delta > 0.0 else 0
    except ValueError as exc:
        raise ValueError(f"gate |theta_L| = {mag!r}, n_rus = {n}: {exc}") from exc


def _finish(params: tmr.TmrParams, mag, n, p_analog, analog_clocks, p_m: float, timing_mode: str):
    """The closed-form finish of the SMM gates the evaluator's trials fed.

    Elementwise over arrays: gates at |theta_l| = ``mag`` that run
    ``n`` analog trials with expected residual ``p_analog`` and expected analog
    clocks ``analog_clocks``.  The digital stage, reached with probability
    p_switch = 2^-n, synthesizes at delta = max(p_m, 0.1 * 2^n * p_analog), so
    the synthesis error stays below the other sources, with
    N_syn = mitigation.synthesis_t_count(delta) T-gates (none when p_m = 0 and
    p_analog = 0), and flips the output at rate p_digital = delta + p_m N_syn.
    The identity gate (``mag`` = 0) synthesizes nothing: P_L = alpha = 0, no flag.
    Gates are taken in order, so when the synthesis refuses a delta of 1 or
    more, the ValueError names the first such gate's |theta_l| and n.
    Returns the :class:`SmmReport` fields it owns as numpy arrays.  Each
    gate's values depend on its own inputs only, so a gate has the same bits
    alone and inside a sweep.
    """
    mag = np.asarray(mag)
    live = mag > 0.0
    p_switch = np.ldexp(1.0, -n)
    delta = np.where(live, np.maximum(p_m, 0.1 * np.ldexp(p_analog, n)), 0.0)
    gates = zip(*(np.ravel(x).tolist() for x in (mag, n, delta)))
    n_syn = np.array([_t_count(*gate) for gate in gates], dtype=int).reshape(np.shape(delta))
    p_digital = delta + p_m * n_syn
    p_l = p_analog + p_switch * p_digital
    p_ph = params.p_ph
    if p_ph > 0.0:
        # mag * p_ph can underflow to 0, making alpha inf or nan; the CLI names such rows
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            alpha = np.where(live, p_l / (mag * p_ph), 0.0)
        flag = live & (mag <= p_ph ** (params.k / 2.0))
    else:
        alpha = np.where(p_l == 0.0, 0.0, math.inf)
        flag = np.zeros(mag.shape, dtype=bool)
    return dict(
        p_switch=p_switch, p_digital=p_digital, n_syn=n_syn, p_l=p_l, alpha_rus=alpha,
        expected_clocks=analog_clocks + p_switch * _digital_clocks(timing_mode, n_syn),
        out_of_regime=flag,
    )


#: (gate, trial) pairs per evaluator call in a sweep, give or take one gate's trials: bounds
#: the tables held at once, which a block of gates would not where each runs ~1000 trials.
_SWEEP_PAIRS = 4096


def _evaluate(params: tmr.TmrParams, mag: np.ndarray, n: np.ndarray, p_m: float,
              include_higher_orders: bool, timing_mode: str):
    """The SMM evaluator behind :func:`effective_error_rate` and :func:`error_rates`.

    Gates at |theta_l| = ``mag`` run ``n`` analog trials each; trial i of
    a gate runs at 2^i |theta_l|.  Every (gate, trial) pair goes through one
    :func:`tmr.branch_table` and one :func:`pcec.residual_rates` call, and
    each gate's terms 2^-i r_i and 2^-i clocks_i are added to 0.0 in trial
    order, the order P_L's sum is written in (``np.add.at`` adds in index
    order).
    Returns the :func:`_finish` fields plus ``p_analog``, and the trial table
    ``(trial, theta_rus, thetas, qbars, residual, clocks)`` over the pairs,
    gate by gate.
    """
    gate = np.repeat(np.arange(mag.size), n)
    trial = np.arange(gate.size) - np.repeat(np.cumsum(n) - n, n)
    theta_rus = np.ldexp(mag[gate], trial)
    p_ideal, thetas, qbars = tmr.branch_table(params, theta_rus)
    residual = pcec.residual_rates(thetas, qbars, include_higher_orders)
    clocks = np.broadcast_to(_analog_clocks(timing_mode, p_ideal), residual.shape)
    weight = np.ldexp(1.0, -trial)
    p_analog, analog_clocks = np.zeros(mag.size), np.zeros(mag.size)
    np.add.at(p_analog, gate, weight * residual)
    np.add.at(analog_clocks, gate, weight * clocks)
    finish = _finish(params, mag, n, p_analog, analog_clocks, p_m, timing_mode)
    return dict(finish, p_analog=p_analog), (trial, theta_rus, thetas, qbars, residual, clocks)


def _one_gate(config: SmmConfig):
    """n_rus and :func:`_evaluate`'s output for one gate."""
    n = n_rus(abs(config.theta_l), config.resolved_threshold())
    return n, *_evaluate(config.tmr_params, np.abs([config.theta_l]), np.array([n]), config.p_m,
                         config.include_higher_orders, config.timing_mode)


def _every_branch(config: SmmConfig, route: str):
    """:func:`_one_gate` for a route that keeps every branch up to j_max."""
    if not config.include_higher_orders and config.tmr_params.j_max > 1:
        raise ValueError(f"the {route} keeps every branch: leading order needs j_max = 1")
    return _one_gate(config)


def effective_error_rate(config: SmmConfig) -> SmmReport:
    """Analytic effective error rate, RUS factor and expected clocks of one gate.

    P_L = sum_i 2^-i r(2^i theta_l) + 2^-N (delta + p_m N_syn)

    with r the per-trial post-PCEC residual; 2^-i is the probability that
    trial i is executed at all.  theta_l = 0 yields the identity report and
    negative theta_l is folded by mirror symmetry.  The report equals the
    gate's :func:`error_rates` row bit for bit; ``trials`` is its trial table.
    """
    n, fields, (index, theta_rus, thetas, qbars, residual, clocks) = _one_gate(config)
    trials = map(TrialRow, index.tolist(), theta_rus.tolist(), map(tuple, thetas.tolist()),
                 map(tuple, qbars.tolist()), residual.tolist(), clocks.tolist())
    return SmmReport(n_rus=n, trials=tuple(trials), **{key: x.item() for key, x in fields.items()})


@dataclass(frozen=True)
class SweepRates:
    """Outputs of :func:`error_rates`, one entry per row."""

    p_l: np.ndarray
    alpha_rus: np.ndarray
    expected_clocks: np.ndarray
    out_of_regime: np.ndarray


def error_rates(params: tmr.TmrParams, theta_l, theta_th, *, p_m: float = SmmConfig.p_m,
                include_higher_orders: bool = SmmConfig.include_higher_orders,
                timing_mode: str = SmmConfig.timing_mode) -> SweepRates:
    """Array form of :func:`effective_error_rate` for many gates sharing one TMR setup.

    Row r is the gate ``SmmConfig(theta_l[r], params, theta_th=theta_th[r],
    ...)``, ``theta_th`` broadcast against ``theta_l``, its domain checked as
    ``SmmConfig`` checks it.  The rows pass through the evaluator in order,
    about ``_SWEEP_PAIRS`` trials per call, so each row equals that gate's
    report bit for bit.
    """
    _check_domain(theta_l, theta_th, p_m, timing_mode)
    theta_l, theta_th = np.broadcast_arrays(np.asarray(theta_l, dtype=float),
                                            np.asarray(theta_th, dtype=float))
    mag, th = np.abs(theta_l).ravel(), theta_th.ravel()

    n = np.array([n_rus(x, t) for x, t in zip(mag.tolist(), th.tolist())], dtype=int)
    cuts = np.flatnonzero(np.diff((np.cumsum(n) - n) // _SWEEP_PAIRS)) + 1
    blocks = [
        _evaluate(params, block_mag, block_n, p_m, include_higher_orders, timing_mode)[0]
        for block_mag, block_n in zip(np.split(mag, cuts), np.split(n, cuts))
    ]
    return SweepRates(**{
        name: np.concatenate([block[name] for block in blocks]).reshape(theta_l.shape)
        for name in SweepRates.__dataclass_fields__
    })


def synthesis_only_gate(delta: float, p_m: float = mitigation.P_M) -> tuple[float, float]:
    """Error rate and clocks of the pure T-gate-synthesis comparator.

    Returns (P_L, clocks) = (delta + p_m*N_syn, the latency-mode clocks of N_syn T-gates).
    """
    n_syn = mitigation.synthesis_t_count(delta)
    return delta + p_m * n_syn, _digital_clocks("latency", n_syn)


# -- Exact trajectory enumeration (closed form) -----------------------------

def enumerate_error_rate(config: SmmConfig) -> float:
    """Exact twirled-Z error of the SMM output under the P_L convention.

    A closed form over the :func:`tmr.branch_table` rows: trial i's gate and
    canceller flip the output at f_i / 2 (``pcec._defects``), trials 0..i at
    D_i / 2, D_i = 1 - prod_{i'<=i} (1 - f_i').  Success at trial i scores
    2^-(i+1) D_i / 2, the digital branch 2^-n (D + 2p (1 - D)) / 2 with
    D = D_{n-1}, p = p_digital.  0 <= P_L - exact <= (max_i sum_{j>=1}
    qbar_{j,i} + 2 sum_i r_i) P_L, r_i the residuals, as the tests derive.
    Raises ``pcec.ModelRegimeError`` outside PCEC's regime; leading order
    (``include_higher_orders=False``) raises ValueError unless j_max = 1.
    """
    n, fields, (_, _, thetas, qbars, _, _) = _every_branch(config, "enumerator")
    d = -np.expm1(np.cumsum(np.log1p(-np.append(0.0, pcec._defects(thetas, qbars)))))
    analog = float(np.ldexp(d[1:], -np.arange(2, n + 2)).sum())  # d[0] = D_{-1} = 0
    return analog + math.ldexp(d[-1] + 2.0 * fields["p_digital"][0] * (1.0 - d[-1]), -n - 1)


# -- Monte-Carlo trajectory sampler -----------------------------------------

@dataclass(frozen=True)
class McReport:
    """Empirical estimates with standard errors."""

    shots: int
    seed: int
    p_l_hat: float
    p_l_se: float
    clocks_hat: float
    clocks_se: float
    p_switch_hat: float
    p_switch_se: float


#: Hit trajectories scored at once: bounds the sampler's memory for any ``shots``.
_MC_BLOCK = 1 << 12


def _mc_tables(theta_rus: np.ndarray, thetas: np.ndarray, qbars: np.ndarray):
    """(edges, rest, zero, first, deltas): a gate's sampling tables, one row per trial.

    Built from the columns ``theta_rus``, ``thetas``, ``qbars`` of :func:`_evaluate`'s table.

    ``edges`` are the cumulative branch weights with the last set to 1;
    ``rest`` the cumulative weights of the branches j >= 1 alone, whose last
    entry is the trial's hit weight S; ``zero`` the chance q_0 / (1 + q_0),
    q_0 = 1 - S, that a hit pair's gate is the identity; ``first`` the
    chance 1 - prod_{i<=j} (1 - S_i)^2 that one of trials 0..j draws a
    branch (through log1p); ``deltas`` the branch angles less theta_rus.
    """
    edges = np.cumsum(qbars, axis=1)
    edges[:, -1] = 1.0
    rest = np.cumsum(qbars[:, 1:], axis=1)
    hit = rest[:, -1]
    first = -np.expm1(np.cumsum(2.0 * np.log1p(-hit)))
    return edges, rest, (1.0 - hit) / (2.0 - hit), first, thetas - theta_rus[:, None]


def _branch(table: np.ndarray, trial: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(table[t], u_t, side="right")`` for each trial t of ``trial``."""
    index = np.zeros(u.size, dtype=np.intp)
    for edge in table.T:
        index += edge[trial] <= u
    return index


def _first_hits(tables, last: np.ndarray, u: np.ndarray):
    """(trial, gate, canceller) of the first branch drawn by trajectories that draw one.

    ``last`` is each trajectory's last trial and ``u`` its four uniforms:
    the trial J, looked up in ``first`` scaled by ``first[last]``; whether
    the gate is the identity; the gate's branch among j >= 1; the
    canceller's branch, among j >= 1 after an identity gate.
    """
    edges, rest, zero, first, _ = tables
    trial = np.searchsorted(first, u[:, 0] * first[last], side="right")
    hit = rest[trial, -1]
    idle = u[:, 1] < zero[trial]
    gate = np.where(idle, 0, 1 + _branch(rest, trial, u[:, 2] * hit))
    canceller = np.where(idle, 1 + _branch(rest, trial, u[:, 3] * hit),
                         _branch(edges, trial, u[:, 3]))
    return trial, gate, canceller


def _signed_steps(deltas: np.ndarray, stratum, trial, gate, canceller) -> np.ndarray:
    """Delta_gate - Delta_canceller, negated on the failed trials (those before ``stratum``)."""
    step = deltas[trial, gate] - deltas[trial, canceller]
    return np.where(trial < stratum, -step, step)


def _hit_scores(rng: np.random.Generator, tables, stratum: np.ndarray, p_digital: float):
    """The scores x of hit trajectories, given their strata (stop trial, or n_rus if digital)."""
    edges, deltas = tables[0], tables[-1]
    n = len(deltas)
    last = np.minimum(stratum, n - 1)
    trial, gate, canceller = _first_hits(tables, last, rng.random((stratum.size, 4)))
    span = last - trial  # the unconditional trials after the first hit
    owner = np.repeat(np.arange(stratum.size), span)
    later = np.repeat(trial + 1 - (np.cumsum(span) - span), span) + np.arange(owner.size)
    draws = rng.random((owner.size, 2))
    # an identity pair moves the deviation by exactly 0: only the rare others are looked up
    moved = np.flatnonzero(np.maximum(draws[:, 0], draws[:, 1]) >= edges[later, 0])
    owner, later, draws = owner[moved], later[moved], draws[moved]
    x = _signed_steps(deltas, stratum, trial, gate, canceller)
    steps = _signed_steps(deltas, stratum[owner], later, _branch(edges, later, draws[:, 0]),
                          _branch(edges, later, draws[:, 1]))
    np.add.at(x, owner, steps)  # in trial order
    np.sin(x, out=x)
    x *= x
    # digital branch: Z-flip with rate p_dig on top of the analog deviation
    digital = stratum == n
    x[digital] = (1.0 - p_digital) * x[digital] + p_digital * (1.0 - x[digital])
    return x


def monte_carlo(config: SmmConfig, shots: int, seed: int) -> McReport:
    """Sample SMM trajectories and estimate P_L, clocks and p_switch.

    Each trial succeeds with probability 1/2; the over-rotation branch is
    sampled for the teleported gate and for the canceller (mirrored after
    failures), and the accumulated angle deviation is scored exactly as
    sin^2 at completion.  Digital-branch trajectories keep their analog
    deviation and fold in the synthesis/magic flip rate, matching the
    full-accounting P_L.  The branch tables keep every branch up to
    ``j_max``, so leading order (``include_higher_orders=False``) raises
    ValueError unless j_max = 1, as in :func:`enumerate_error_rate`.
    The tables and ``p_digital`` are the evaluator's (:func:`_one_gate`);
    theta_l = 0 runs no trial, so every shot goes digital and scores 0.

    It draws counts, not trajectories, so a call costs O(n_rus + hit
    trajectories).  The draws come, in this order, from one
    ``np.random.Generator(np.random.Philox(key=seed))``:

    1. Stop counts: with L_0 = shots, trial i stops s_i ~ Bin(L_i, 1/2) and
       L_{i+1} = L_i - s_i, one ``binomial`` call per trial until L = 0; L_n
       go digital.  A stratum (stop trial m, or digital) runs trials 0..t,
       t = m or n - 1.
    2. Hit counts: trial i draws no branch with chance a_i = (1 - S_i)^2, S_i
       the weight of its branches j >= 1.  One ``binomial`` call draws each
       nonempty stratum's Bin(count, 1 - prod_{i<=t} a_i), digital last.
    3. Hit trajectories, in stratum order, in blocks of at most
       ``_MC_BLOCK``: ``random((size, 4))`` gives each its first hit trial J,
       P(J = j) proportional to prod_{i<j} a_i (1 - a_j), and its pair at J
       from qbar x qbar without (0, 0) (:func:`_first_hits`); then
       ``random((later, 2))`` its gate and canceller from qbar at each trial
       J < i <= t, trajectory by trajectory, in trial order.  Uniforms are
       looked up as ``searchsorted(side="right")`` in cumulative tables.

    A step Delta_gate - Delta_canceller is negated on failed trials (before
    m; every digital one).  A hit trajectory's steps are added in trial
    order and scored as sin^2, digital flip folded in; a digital trajectory
    without a hit scores p_digital, any other 0.  So sum x is each block's
    numpy sum of scores, added in block order, plus the clean digital count
    times p_digital; sum x^2 likewise with squares.  sum t and sum t^2 are
    the numpy sums of the stop counts times the stopping clocks and their
    squares.

    The bits depend on ``Generator.binomial`` as well as on the Philox
    stream, and numpy may change the algorithms behind ``Generator``'s
    distributions between releases (NEP 19): a report is reproducible
    under one numpy version.  ``seed`` must lie in [0, 2^64), the Philox
    key's range, and ``shots`` in [1, 2^63), ``binomial``'s int64 range.
    """
    def integer(name: str, value) -> int:
        try:
            if isinstance(value, bool):  # an int subclass, not a count
                raise TypeError
            return operator.index(value)  # numpy integers too
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None

    shots, seed = integer("shots", shots), integer("seed", seed)
    if not 1 <= shots < 2 ** 63:
        raise ValueError(f"shots must be >= 1 and < 2^63, got {shots}")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    n, fields, (_, theta_rus, thetas, qbars, _, clocks) = _every_branch(config, "sampler")
    p = fields["p_digital"].item()
    rng = np.random.Generator(np.random.Philox(key=seed))

    counts = np.zeros(n + 1, dtype=np.int64)  # stopping at trial i; the digital ones last
    left = shots
    for i in range(n):
        if not left:
            break
        counts[i] = rng.binomial(left, 0.5)
        left -= int(counts[i])
    counts[n] = n_digital = clean = left

    sum_x = sum_x2 = 0.0
    if n:
        tables = _mc_tables(theta_rus, thetas, qbars)
        first = tables[3]
        strata = np.flatnonzero(counts)
        hits = rng.binomial(counts[strata], first[np.minimum(strata, n - 1)])
        ends = np.cumsum(hits)
        for lo in range(0, int(ends[-1]), _MC_BLOCK):
            share = np.clip(ends, lo, lo + _MC_BLOCK) - np.clip(ends - hits, lo, lo + _MC_BLOCK)
            x = _hit_scores(rng, tables, np.repeat(strata, share), p)
            sum_x += float(x.sum())
            x *= x
            sum_x2 += float(x.sum())
        if n_digital:
            clean -= int(hits[-1])
    sum_x += clean * p
    sum_x2 += clean * p ** 2

    # clocks of a trajectory that stops at trial i (index i), or goes digital (index n_rus)
    t_digital = _digital_clocks(config.timing_mode, fields["n_syn"].item())
    stop_clocks = np.cumsum(np.append(clocks, t_digital))
    sum_t, sum_t2 = (float((counts * t).sum()) for t in (stop_clocks, stop_clocks ** 2))

    def mean_se(total: float, squares: float) -> tuple[float, float]:
        mean = total / shots
        return mean, math.sqrt(max(squares / shots - mean ** 2, 0.0) / shots)

    p_sw = n_digital / shots
    return McReport(shots, seed, *mean_se(sum_x, sum_x2), *mean_se(sum_t, sum_t2),
                    p_sw, math.sqrt(p_sw * (1.0 - p_sw) / shots))


# -- Previous-generation RUS model and pass-rate calibration ----------------

@functools.lru_cache(maxsize=1 << 10)
def _v2_trials(theta_l: float, k: int, p_ph: float) -> tuple:
    """(p_ideal, pair weight, sin^2 Delta_1) of each v2 trial at 2^i theta_l.

    None depends on c_1, which enters only through q_1 = pair * c_1 * p_ph.
    """
    params = tmr.TmrParams(k=k, p_ph=p_ph, j_max=1)
    models = (tmr.output_model_for_logical(params, math.ldexp(theta_l, i))
              for i in range(n_rus(theta_l, tmr.MAX_THETA) if theta_l < tmr.MAX_THETA else 0))
    return tuple((m.p_ideal, tmr.pair_weight(m.theta_phys, k, 1),
                  math.sin(m.branch_thetas[1] - m.theta_l) ** 2) for m in models)


def _v2_mean(thetas, k: int, p_ph: float):
    """c_1 -> :func:`v2_rus_factor` averaged over ``thetas``, on one (trial, angle) table.

    Shorter rows are padded with residual-0 trials, which add 0.0 and are
    not counted; each angle adds its 2^-i r_i to 0.0 in trial order.
    """
    rows = [_v2_trials(theta_l, k, p_ph) for theta_l in thetas]
    n = [len(row) for row in rows]
    width = max([1, *n])
    pid, pair, s2 = np.array([row + ((1.0, 0.0, 0.0),) * (width - len(row)) for row in rows]).T
    trial, span = np.arange(width)[:, None], np.multiply(thetas, p_ph)
    injection = mitigation.INJECTION_RATE * p_ph

    def mean(c1: float) -> float:
        q1 = pair * c1 * p_ph
        residual = 2.0 * (q1 / (pid + q1) * s2)
        run = np.logical_and.accumulate(residual < injection)  # trials before the switch, pads
        p_l = np.cumsum(np.where(run, np.ldexp(residual, -trial), 0.0), axis=0)[-1]
        p_l += np.ldexp(injection, 1 - np.minimum(run.sum(axis=0), n))
        return functools.reduce(operator.add, (p_l / span).tolist()) / len(n)

    return mean


def v2_rus_factor(theta_l: float, k: int, p_ph: float, c1: float) -> float:
    """RUS factor of the previous-generation gate (no digital stage).

    The RUS process runs to success.  Trial i at 2^i theta_l uses TMR with
    first-order PCEC until its residual reaches the [[4,1,1,2]] injection
    error (2/15) p_ph; that trial and every later one use injection.  The
    residual rises with angle, so switching at the first losing trial is
    optimal.  alpha = P_L / (theta_l * p_ph) with
    P_L = sum_{i<i0} 2^-i r(2^i theta_l) + 2^(1-i0) (2/15) p_ph.
    """
    for name, value in (("theta_l", theta_l), ("p_ph", p_ph), ("c1", c1)):
        if not (0.0 < value < math.inf or value == 0.0 and name == "c1"):
            raise ValueError("theta_l and p_ph must be positive and c1 non-negative, all "
                             f"finite; got {name} = {value!r}")
    return _v2_mean((theta_l,), k, p_ph)(c1)


def v2_octave_average(k: int, p_ph: float, c1: float) -> float:
    """:func:`v2_rus_factor` averaged over the 16 angles CALIBRATION_ANCHOR * 2^(j/16), j < 16."""
    vals = [v2_rus_factor(theta_l, k, p_ph, c1) for theta_l in _OCTAVE]
    return functools.reduce(operator.add, vals) / len(vals)


def calibrate_c1(k: int = mitigation.V2_RUS_K, p_ph: float = mitigation.P_PH) -> float:
    """Fit c_1 so the previous-generation RUS factor matches V2_RUS_FACTOR.

    The factor oscillates with log2(theta_l) (period one octave), so the
    calibration matches :func:`v2_octave_average`.  Bisection on log(c_1) is
    safe: the averaged factor is monotone in c_1.

    The bisection runs the v2 switch rule on one table of the octave's trial
    rows, and the answer is checked through :func:`v2_octave_average`, which
    reads the same cached rows: a ValueError unless it gives V2_RUS_FACTOR
    within 1e-6.  p_ph must keep CALIBRATION_ANCHOR * p_ph > 0.  One cache
    entry per (k, p_ph), however the call is written.
    """
    return _calibrated_c1(k, p_ph)


@functools.lru_cache(maxsize=None)
def _calibrated_c1(k: int, p_ph: float) -> float:
    if not CALIBRATION_ANCHOR * p_ph > 0.0:  # the v2 factor divides by theta_l * p_ph
        raise ValueError(f"need {CALIBRATION_ANCHOR} * p_ph > 0, got p_ph = {p_ph!r}")
    averaged, target = _v2_mean(_OCTAVE, k, p_ph), mitigation.V2_RUS_FACTOR
    lo, hi = math.log(1e-4), math.log(10.0)
    if averaged(math.exp(lo)) > target:
        raise ValueError("calibration target below the injection-only floor")
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if averaged(math.exp(mid)) < target else (lo, mid)
    c1 = math.exp(0.5 * (lo + hi))

    mean = v2_octave_average(k, p_ph, c1)
    if not abs(mean - target) <= 1e-6:  # a NaN average fails too
        raise ValueError(f"calibrated c1 = {c1!r} (k = {k}, p_ph = {p_ph!r}) gives an octave-"
                         f"averaged v2 factor {mean!r}, not {target}")
    return c1
