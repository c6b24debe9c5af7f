"""The STAR-magic-mutation engine.

One SMM gate runs repeat-until-success teleportation with TMR-prepared
resource states while the RUS angle stays below a threshold, cancelling
over-rotations with PCEC after every trial, and falls back to T-gate
synthesis from cultivated magic states once the angle reaches the
threshold.  This module provides:

* the analytic expectation calculator for the effective error rate, the
  RUS factor ``alpha = P_L / (theta_l * p_ph)`` and the expected clocks,
  per gate (the reference path) and as arrays over a sweep;
* a vectorized Monte-Carlo trajectory sampler cross-checking the analytics;
* an exact trajectory enumerator built on the channel-algebra oracle;
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
from dataclasses import dataclass

import numpy as np

from . import mitigation, pcec, tmr, zchan

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


def n_rus(theta_l: float, theta_th: float) -> int:
    """Number of analog RUS trials before the digital switch: ceil(log2 r)."""
    if not 0.0 < theta_l <= theta_th:
        raise ValueError(
            f"need 0 < theta_l <= theta_th, got theta_l={theta_l!r}, theta_th={theta_th!r}"
        )
    # snap ratios that are exact powers of two despite float rounding
    return max(0, math.ceil(math.log2(theta_th / theta_l) - 1e-12))


def in_domain(theta_l, theta_th) -> np.ndarray:
    """Elementwise mask of the gates the model covers: |theta_l| <= theta_th <= pi/8, theta_th > 0.

    theta_l = 0 is the identity gate; NaN and infinite angles are outside.  The
    pi/8 cap has a 1e-15 slack for thresholds computed as ratio * |theta_l|.
    """
    theta_l, theta_th = np.asarray(theta_l, dtype=float), np.asarray(theta_th, dtype=float)
    return (theta_th > 0.0) & (theta_th <= MAX_THRESHOLD + 1e-15) & (np.abs(theta_l) <= theta_th)


def _check_domain(theta_l, theta_th, p_m: float, timing_mode: str) -> None:
    """Raise ValueError unless every gate (theta_l, theta_th) is :func:`in_domain`.

    ``SmmConfig`` and :func:`error_rates` both call this, so the scalar and
    the array path accept the same gates.
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
    p_m: float = 2e-9
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
    """Per-trial breakdown: i-th analog trial at angle 2^i * theta_l."""

    index: int
    theta_rus: float
    model: tmr.TmrOutputModel
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


def _finish(params: tmr.TmrParams, mag, n, p_analog, analog_clocks, p_m: float, timing_mode: str):
    """The closed-form finish of an SMM gate, shared by the scalar and the array path.

    Elementwise over floats or arrays: gates at |theta_l| = ``mag`` that run
    ``n`` analog trials with expected residual ``p_analog`` and expected analog
    clocks ``analog_clocks``.  The digital stage, reached with probability
    p_switch = 2^-n, synthesizes at delta = max(p_m, 0.1 * 2^n * p_analog), so
    the synthesis error stays below the other sources, with
    N_syn = mitigation.synthesis_t_count(delta) T-gates (none when p_m = 0 and
    p_analog = 0), and flips the output at rate p_digital = delta + p_m N_syn.
    Returns the :class:`SmmReport` fields it owns as numpy values.  Powers of
    two are exact (``ldexp``) and p_ph^(k/2) is Python's ``pow``, so a scalar
    gate gets the bits its row of the array path would get from equal inputs.
    """
    mag = np.asarray(mag)
    p_switch = np.ldexp(1.0, -n)
    delta = np.maximum(p_m, np.ldexp(0.1, n) * p_analog)
    n_syn = np.array(
        [mitigation.synthesis_t_count(d) if d > 0.0 else 0 for d in np.ravel(delta).tolist()],
        dtype=int,
    ).reshape(np.shape(delta))
    p_digital = delta + p_m * n_syn
    p_l = p_analog + p_switch * p_digital
    p_ph = params.p_ph
    if p_ph > 0.0:
        # mag * p_ph can underflow to 0, making alpha inf or nan; the CLI names such rows
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            alpha = p_l / (mag * p_ph)
        flag = mag <= p_ph ** (params.k / 2.0)
    else:
        alpha = np.where(p_l == 0.0, 0.0, math.inf)
        flag = np.zeros(mag.shape, dtype=bool)
    return dict(
        p_switch=p_switch, p_digital=p_digital, n_syn=n_syn, p_l=p_l, alpha_rus=alpha,
        expected_clocks=analog_clocks + p_switch * _digital_clocks(timing_mode, n_syn),
        out_of_regime=flag,
    )


def effective_error_rate(config: SmmConfig) -> SmmReport:
    """Analytic effective error rate, RUS factor and expected clocks.

    P_L = sum_i 2^-i r(2^i theta_l) + 2^-N (delta + p_m N_syn)

    with r the per-trial post-PCEC residual; 2^-i is the probability that
    trial i is executed at all.  theta_l = 0 yields the identity report and
    negative theta_l is folded by mirror symmetry.
    """
    if config.theta_l == 0.0:
        return SmmReport(
            n_rus=0, p_switch=1.0, p_analog=0.0, p_digital=0.0, n_syn=0, p_l=0.0,
            alpha_rus=0.0, expected_clocks=0.0, trials=(), out_of_regime=False,
        )
    theta_l = abs(config.theta_l)
    n = n_rus(theta_l, config.resolved_threshold())

    rows = []
    for i in range(n):
        theta_rus = 2.0 ** i * theta_l
        model = tmr.output_model_for_logical(config.tmr_params, theta_rus)
        rows.append(TrialRow(
            index=i, theta_rus=theta_rus, model=model,
            residual=pcec.residual_rate(model, config.include_higher_orders),
            clocks=_analog_clocks(config.timing_mode, model.p_ideal),
        ))

    # expected residual and clocks over all executed trials, digital branch included
    p_analog = sum(2.0 ** (-row.index) * row.residual for row in rows)
    clocks = sum(2.0 ** (-row.index) * row.clocks for row in rows)
    finish = _finish(
        config.tmr_params, theta_l, n, p_analog, clocks, config.p_m, config.timing_mode
    )
    return SmmReport(
        n_rus=n, p_analog=p_analog, trials=tuple(rows),
        **{name: value.item() for name, value in finish.items()},
    )


@dataclass(frozen=True)
class SweepRates:
    """Outputs of :func:`error_rates`, one entry per row."""

    p_l: np.ndarray
    alpha_rus: np.ndarray
    expected_clocks: np.ndarray
    out_of_regime: np.ndarray


def error_rates(
    params: tmr.TmrParams,
    theta_l,
    theta_th,
    *,
    p_m: float = 2e-9,
    include_higher_orders: bool = True,
    timing_mode: str = "pipelined",
) -> SweepRates:
    """Array form of :func:`effective_error_rate` for many gates sharing one TMR setup.

    Row r is the gate ``SmmConfig(theta_l[r], params, theta_th=theta_th[r],
    ...)``; ``theta_th`` broadcasts against ``theta_l``, and the domain is
    checked by the helper ``SmmConfig`` uses.  Trial i runs at 2^i |theta_l| for
    the rows with i < n_rus, weighted by 2^-i: one numpy pass over those rows
    per trial index, accumulated in the scalar path's order.  Each row's
    T-count comes from ``mitigation.synthesis_t_count``.  Values agree with
    :func:`effective_error_rate`, whose per-trial tables the enumerator, the
    sampler and ``verify`` read, to a few ulp (see :func:`tmr.branch_table`).
    """
    _check_domain(theta_l, theta_th, p_m, timing_mode)
    theta_l, theta_th = np.broadcast_arrays(
        np.asarray(theta_l, dtype=float), np.asarray(theta_th, dtype=float)
    )
    live = theta_l != 0.0  # theta_l = 0 rows are the identity gate
    mag, th = np.abs(theta_l[live]), theta_th[live]

    n = np.array([n_rus(x, t) for x, t in zip(mag.tolist(), th.tolist())], dtype=int)
    p_analog = np.zeros(mag.shape)
    clocks = np.zeros(mag.shape)
    for i in range(int(n.max(initial=0))):
        running = n > i  # the rows that reach trial i
        p_ideal, thetas, qbars = tmr.branch_table(params, 2.0 ** i * mag[running])
        weight = 2.0 ** (-i)
        p_analog[running] += weight * pcec.residual_rates(thetas, qbars, include_higher_orders)
        clocks[running] += weight * _analog_clocks(timing_mode, p_ideal)

    finish = _finish(params, mag, n, p_analog, clocks, p_m, timing_mode)

    def per_row(values: np.ndarray) -> np.ndarray:
        full = np.zeros(theta_l.shape, dtype=values.dtype)  # identity rows stay zero
        full[live] = values
        return full

    return SweepRates(**{name: per_row(finish[name]) for name in SweepRates.__dataclass_fields__})


def synthesis_only_gate(delta: float, p_m: float = 2e-9) -> tuple[float, float]:
    """Error rate and clocks of the pure T-gate-synthesis comparator.

    Returns (P_L, clocks) = (delta + p_m*N_syn, N_syn*T_GATE_LATENCY_CLOCKS).
    """
    n_syn = mitigation.synthesis_t_count(delta)
    return delta + p_m * n_syn, n_syn * T_GATE_LATENCY_CLOCKS


# ---------------------------------------------------------------------------
# Exact trajectory enumeration (channel-algebra route)
# ---------------------------------------------------------------------------

def enumerate_error_rate(config: SmmConfig) -> float:
    """Exact twirled-Z error of the SMM output under the P_L convention.

    Builds the exact per-trial composed channel canceller.noisy with the
    channel algebra and multiplies coherence factors across trials, so each
    success-at-m trajectory class is evaluated without perturbative
    truncation.  Differs from :func:`effective_error_rate` only by the
    O((sum qbar)^2) cross terms the analytic sum drops.
    """
    if config.theta_l == 0.0:
        return 0.0
    report = effective_error_rate(config)
    total = 0.0
    acc = 1.0 + 0.0j
    for row in report.trials:
        net = zchan.compose(
            pcec.build_canceller(row.model), pcec.build_noisy_channel(row.model)
        )
        acc *= zchan.coherence_factor(net, row.theta_rus)
        total += 2.0 ** (-(row.index + 1)) * 0.5 * (1.0 - acc.real)
    # digital branch: all n analog trials plus the synthesis/magic flip
    total += report.p_switch * 0.5 * (1.0 - (acc * (1.0 - 2.0 * report.p_digital)).real)
    return total


# ---------------------------------------------------------------------------
# Monte-Carlo trajectory sampler
# ---------------------------------------------------------------------------

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


_MC_CHUNK = 1 << 17


def monte_carlo(config: SmmConfig, shots: int, seed: int) -> McReport:
    """Sample SMM trajectories and estimate P_L, clocks and p_switch.

    Each trial succeeds with probability 1/2; the over-rotation branch is
    sampled for the teleported gate and for the canceller (mirrored after
    failures), and the accumulated angle deviation is scored exactly as
    sin^2 at completion.  Digital-branch trajectories keep their analog
    deviation and fold in the synthesis/magic flip rate, matching the
    full-accounting P_L.

    The RNG is counter-based: Philox keyed by (seed, chunk index) with a
    fixed chunk size and a fixed draw order inside each chunk, so
    (seed, trajectory index) determines a trajectory regardless of how
    chunks are scheduled; results are bit-reproducible.  Every trial draws
    its three uniforms for the whole chunk, but only the live trajectories,
    those that have not yet stopped, read theirs and are advanced: trial i
    reaches 2^-i of the chunk, and a chunk stops drawing once none is live.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if config.theta_l == 0.0:
        return McReport(shots, seed, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)

    report = effective_error_rate(config)

    # per-trial sampling tables
    cums, deltas = [], []
    for row in report.trials:
        edges = np.cumsum(row.model.branch_qbars)
        edges[-1] = 1.0
        cums.append(edges)
        deltas.append(np.array(row.model.branch_thetas) - row.theta_rus)  # Delta_0 = 0
    t_digital = _digital_clocks(config.timing_mode, report.n_syn)

    sum_x = sum_x2 = sum_t = sum_t2 = 0.0
    n_digital = 0
    done = 0
    chunk_index = 0
    while done < shots:
        size = min(_MC_CHUNK, shots - done)
        # one independent Philox stream per (seed, chunk) key pair
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk_index], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        err = np.zeros(size)
        clocks = np.zeros(size)
        # trial 0 runs every trajectory, on whole-array views; later trials
        # index the live ones.  A stopped trajectory's err stays final.
        live = slice(None)
        for row, edges, dl in zip(report.trials, cums, deltas):
            u_coin = rng.random(size)[live]
            u_gate = rng.random(size)[live]
            u_canc = rng.random(size)[live]
            j_gate = np.searchsorted(edges, u_gate, side="right")
            j_canc = np.searchsorted(edges, u_canc, side="right")
            step = dl[j_gate] - dl[j_canc]
            coin = u_coin < 0.5
            err[live] += np.where(coin, step, -step)
            clocks[live] += row.clocks
            live = np.flatnonzero(~coin) if isinstance(live, slice) else live[~coin]
            if live.size == 0:
                break
        clocks[live] += t_digital
        x = np.sin(err) ** 2
        # digital branch: Z-flip with rate p_dig on top of the analog deviation
        s2 = x[live]
        x[live] = (1.0 - report.p_digital) * s2 + report.p_digital * (1.0 - s2)
        sum_x += float(x.sum())
        sum_x2 += float((x * x).sum())
        sum_t += float(clocks.sum())
        sum_t2 += float((clocks * clocks).sum())
        n_digital += s2.size
        done += size
        chunk_index += 1

    mean_x = sum_x / shots
    var_x = max(sum_x2 / shots - mean_x ** 2, 0.0)
    mean_t = sum_t / shots
    var_t = max(sum_t2 / shots - mean_t ** 2, 0.0)
    p_sw = n_digital / shots
    return McReport(
        shots=shots,
        seed=seed,
        p_l_hat=mean_x,
        p_l_se=math.sqrt(var_x / shots),
        clocks_hat=mean_t,
        clocks_se=math.sqrt(var_t / shots),
        p_switch_hat=p_sw,
        p_switch_se=math.sqrt(p_sw * (1.0 - p_sw) / shots),
    )


# ---------------------------------------------------------------------------
# Previous-generation RUS model and pass-rate calibration
# ---------------------------------------------------------------------------

def _v2_trials(theta_l: float, k: int, p_ph: float):
    """Lazily, (p_ideal, pair weight, sin^2 Delta_1) of the v2 trials at 2^i theta_l.

    None depends on c_1, which enters only through q_1 = pair * c_1 * p_ph.
    """
    params = tmr.TmrParams(k=k, p_ph=p_ph, j_max=1)
    n = n_rus(theta_l, tmr.MAX_THETA) if theta_l < tmr.MAX_THETA else 0
    for i in range(n):
        model = tmr.output_model_for_logical(params, math.ldexp(theta_l, i))
        s2 = math.sin(model.branch_thetas[1] - model.theta_l) ** 2
        yield model.p_ideal, tmr.pair_weight(model.theta_phys, k, 1), s2


def _v2_alpha(theta_l: float, trials, p_ph: float, c1: float) -> float:
    """:func:`v2_rus_factor` at c_1 over :func:`_v2_trials` rows, read up to the switch."""
    injection = mitigation.INJECTION_RATE * p_ph
    p_l, i0 = 0.0, 0
    for pid, pair, s2 in trials:
        q1 = pair * c1 * p_ph
        residual = 2.0 * (q1 / (pid + q1) * s2)
        if residual >= injection:
            break
        p_l += 2.0 ** (-i0) * residual
        i0 += 1
    p_l += 2.0 ** (1 - i0) * injection
    return p_l / (theta_l * p_ph)


def v2_rus_factor(theta_l: float, k: int, p_ph: float, c1: float) -> float:
    """RUS factor of the previous-generation gate (no digital stage).

    The RUS process runs to success.  Trial i at 2^i theta_l uses TMR with
    first-order PCEC until its residual reaches the [[4,1,1,2]] injection
    error (2/15) p_ph; that trial and every later one use injection.  The
    residual rises with angle, so switching at the first losing trial is
    optimal.  alpha = P_L / (theta_l * p_ph) with
    P_L = sum_{i<i0} 2^-i r(2^i theta_l) + 2^(1-i0) (2/15) p_ph.
    """
    if theta_l <= 0.0 or p_ph <= 0.0 or c1 < 0.0:
        raise ValueError("theta_l and p_ph must be positive and c1 non-negative")
    return _v2_alpha(theta_l, _v2_trials(theta_l, k, p_ph), p_ph, c1)


@functools.lru_cache(maxsize=None)
def calibrate_c1(k: int = 7, p_ph: float = 1e-3) -> float:
    """Fit c_1 so the previous-generation RUS factor matches V2_RUS_FACTOR.

    The factor oscillates with log2(theta_l) (period one octave), so the
    calibration matches the octave average at CALIBRATION_ANCHOR.  Bisection
    on log(c_1) is safe: the averaged factor is monotone in c_1.

    Each bisection step runs :func:`v2_rus_factor`'s switch loop over trial
    rows built once per call.  The answer is then checked through
    :func:`v2_rus_factor` itself: a ValueError is raised unless the octave
    average there is V2_RUS_FACTOR within 1e-6.
    """
    if p_ph <= 0.0:
        raise ValueError("p_ph must be positive")
    anchors = [CALIBRATION_ANCHOR * 2.0 ** (j / 16.0) for j in range(16)]
    trials = [list(_v2_trials(anchor, k, p_ph)) for anchor in anchors]

    def averaged_alpha(c1: float) -> float:
        vals = [_v2_alpha(anchor, rows, p_ph, c1) for anchor, rows in zip(anchors, trials)]
        return sum(vals) / len(vals)

    lo, hi = math.log(1e-4), math.log(10.0)
    if averaged_alpha(math.exp(lo)) > mitigation.V2_RUS_FACTOR:
        raise ValueError("calibration target below the injection-only floor")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if averaged_alpha(math.exp(mid)) < mitigation.V2_RUS_FACTOR:
            lo = mid
        else:
            hi = mid
    c1 = math.exp(0.5 * (lo + hi))

    vals = [v2_rus_factor(anchor, k, p_ph, c1) for anchor in anchors]
    mean = sum(vals) / len(vals)
    if abs(mean - mitigation.V2_RUS_FACTOR) > 1e-6:
        raise ValueError(
            f"calibrated c1 = {c1!r} (k = {k}, p_ph = {p_ph!r}) gives an octave-averaged "
            f"v2 factor {mean!r}, not {mitigation.V2_RUS_FACTOR}"
        )
    return c1
