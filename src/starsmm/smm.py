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
import itertools
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
#: The octave above CALIBRATION_ANCHOR that calibrate_c1 averages over.
_OCTAVE = tuple(CALIBRATION_ANCHOR * 2.0 ** (j / 16.0) for j in range(16))


def n_rus(theta_l: float, theta_th: float) -> int:
    """Number of analog RUS trials before the digital switch: ceil(log2 r)."""
    if not 0.0 < theta_l <= theta_th:
        raise ValueError(
            f"need 0 < theta_l <= theta_th, got theta_l={theta_l!r}, theta_th={theta_th!r}"
        )
    # a difference of logs, which no subnormal theta_l overflows; snap exact powers of two
    return max(0, math.ceil(math.log2(theta_th) - math.log2(theta_l) - 1e-12))


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


def _t_count(mag: float, n: int, delta: float) -> int:
    """``mitigation.synthesis_t_count(delta)`` (0 at delta = 0); a refusal names the gate."""
    try:
        return mitigation.synthesis_t_count(delta) if delta > 0.0 else 0
    except ValueError as exc:
        raise ValueError(f"gate |theta_L| = {mag!r}, n_rus = {n}: {exc}") from exc


def _finish(params: tmr.TmrParams, mag, n, p_analog, analog_clocks, p_m: float, timing_mode: str):
    """The closed-form finish of an SMM gate, shared by the scalar and the array path.

    Elementwise over floats or arrays: gates at |theta_l| = ``mag`` that run
    ``n`` analog trials with expected residual ``p_analog`` and expected analog
    clocks ``analog_clocks``.  The digital stage, reached with probability
    p_switch = 2^-n, synthesizes at delta = max(p_m, 0.1 * 2^n * p_analog), so
    the synthesis error stays below the other sources, with
    N_syn = mitigation.synthesis_t_count(delta) T-gates (none when p_m = 0 and
    p_analog = 0), and flips the output at rate p_digital = delta + p_m N_syn.
    Gates are taken in order, so when the synthesis refuses a delta of 1 or
    more, the ValueError names the first such gate's |theta_l| and n.
    Returns the :class:`SmmReport` fields it owns as numpy values.  Powers of
    two are exact (``ldexp``) and p_ph^(k/2) is Python's ``pow``, so a scalar
    gate gets the bits its row of the array path would get from equal inputs.
    """
    mag = np.asarray(mag)
    p_switch = np.ldexp(1.0, -n)
    delta = np.maximum(p_m, 0.1 * np.ldexp(p_analog, n))
    gates = zip(*(np.ravel(x).tolist() for x in (mag, n, delta)))
    n_syn = np.array([_t_count(*gate) for gate in gates], dtype=int).reshape(np.shape(delta))
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
        theta_rus = math.ldexp(theta_l, i)
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
        p_ideal, thetas, qbars = tmr.branch_table(params, np.ldexp(mag[running], i))
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

    The channels keep every branch up to ``j_max``, so a config with
    ``include_higher_orders=False`` raises ValueError unless ``j_max = 1``,
    where the leading-order model keeps every branch too.
    """
    if not config.include_higher_orders and config.tmr_params.j_max > 1:
        raise ValueError("the enumerator keeps every branch: leading order needs j_max = 1")
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
#: A chunk with at most this many live trajectories computes their draws with
#: :func:`_philox_words` instead of streaming the whole trial: the measured
#: cross-over of the two on a 2-core Xeon VM.
_KERNEL_LIVE = 2048
_HALF = np.uint64(1 << 63)  # a uniform is < 0.5 exactly when its raw word is < 2^63
_DOUBLE_SHIFT = np.uint64(11)

#: Philox4x64-10 round multipliers and Weyl key increments (Random123).
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a * b, built from 32-bit halves."""
    a_lo, a_hi = a & _LO32, a >> _S32
    b_lo, b_hi = b & _LO32, b >> _S32
    t = a_hi * b_lo + ((a_lo * b_lo) >> _S32)
    u = a_lo * b_hi + (t & _LO32)
    return a_hi * b_hi + (t >> _S32) + (u >> _S32), a * b


def _philox_words(key: tuple[int, int], pos) -> np.ndarray:
    """``np.random.Philox(key=key).random_raw(n)[pos]``, computed at the positions alone.

    Philox4x64-10 maps a counter (c0, c1, c2, c3) to a block of four words,
    and numpy's stream starts at counter 1, so position p is lane p % 4 of the
    block at counter [p // 4 + 1, 0, 0, 0].  Both multiplies of a round run as
    one (2, n) product of the even counter words (c0, c2).
    """
    pos = np.asarray(pos, dtype=np.uint64)
    flat = pos.ravel()
    even = np.stack((flat // np.uint64(4) + np.uint64(1), np.zeros_like(flat)))
    odd = np.zeros_like(even)  # (c1, c3)
    for r in range(10):
        round_key = np.array([[(k + r * w) % 2 ** 64] for k, w in zip(key, _PHILOX_W)], np.uint64)
        hi, lo = _mulhilo(_PHILOX_M, even)
        even, odd = hi[::-1] ^ odd ^ round_key, lo[::-1]
    lane = (flat % np.uint64(4)).astype(np.intp)
    return np.choose(lane, (even[0], odd[0], even[1], odd[1])).reshape(pos.shape)


def _branch_floor(edge: float) -> int:
    """The least raw word whose uniform (word >> 11) * 2^-53 is >= ``edge``; 2^64 if none is."""
    return math.ceil(edge * 2.0 ** 53) << 11


def monte_carlo(config: SmmConfig, shots: int, seed: int) -> McReport:
    """Sample SMM trajectories and estimate P_L, clocks and p_switch.

    Each trial succeeds with probability 1/2; the over-rotation branch is
    sampled for the teleported gate and for the canceller (mirrored after
    failures), and the accumulated angle deviation is scored exactly as
    sin^2 at completion.  Digital-branch trajectories keep their analog
    deviation and fold in the synthesis/magic flip rate, matching the
    full-accounting P_L.  The branch tables keep every branch up to
    ``j_max``, so ``include_higher_orders=False`` reaches the sample only
    through ``p_digital``: with ``j_max > 1`` it estimates neither model.

    The RNG is counter-based: chunks of ``_MC_CHUNK`` trajectories, each read
    from the Philox4x64-10 stream keyed by (seed, chunk index).  Trajectory t
    of a chunk of ``size`` reads its coin, gate and canceller uniforms of
    trial i at stream positions 3 i size + {0, size, 2 size} + t, as
    ``Generator.random`` would draw three arrays of ``size`` per trial, so
    (seed, trajectory index) fixes a trajectory however chunks are scheduled.
    Trial i reaches only the live trajectories, those that have not stopped,
    about 2^-i of the chunk.  While more than ``_KERNEL_LIVE`` are live, a
    trial streams its 3 size raw words and tests them under a live mask over
    the whole chunk; from then on (live only shrinks) :func:`_philox_words`
    computes just the live ones' words at their positions and the stream is
    left.  A chunk stops once none is live.

    The bits are those of a sampler that draws every uniform with
    ``Generator.random`` and advances every trajectory: a uniform is
    (word >> 11) * 2^-53, so the coin test u < 1/2 is word < 2^63, and a draw
    picks a non-identity branch exactly when its word reaches
    :func:`_branch_floor` of the identity edge.  Only those draws are turned
    into uniforms and looked up; every other draw moves the deviation by
    exactly 0.  A trajectory's clocks are the trial clocks summed in trial
    order, and sin^2, the digital fold and the four sums run over the whole
    chunk as such a sampler's would.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    report = effective_error_rate(config)

    # per-trial sampling tables: branch edges, angle deviations, identity floor
    tables = []
    for row in report.trials:
        edges = np.cumsum(row.model.branch_qbars)
        edges[-1] = 1.0
        deltas = np.array(row.model.branch_thetas) - row.theta_rus  # Delta_0 = 0
        tables.append((edges, deltas, _branch_floor(float(edges[0]))))
    # clocks of a trajectory that stops at trial i (index i), or goes digital (index n_rus)
    elapsed = list(itertools.accumulate((row.clocks for row in report.trials), initial=0.0))
    t_digital = _digital_clocks(config.timing_mode, report.n_syn)
    stop_clocks = np.array(elapsed[1:] + [elapsed[-1] + t_digital])

    sum_x = sum_x2 = sum_t = sum_t2 = 0.0
    n_digital = 0
    done = 0
    chunk_index = 0
    while done < shots:
        size = min(_MC_CHUNK, shots - done)
        key = (seed & 0xFFFFFFFFFFFFFFFF, chunk_index)
        stream = np.random.Philox(key=np.array(key, dtype=np.uint64))
        err = np.zeros(size)
        stop = np.zeros(size, dtype=np.intp)  # trials survived: the stopping trial, or n_rus
        # a live mask over the whole chunk while streaming, then live indices
        alive = np.ones(size, dtype=bool)
        live = None if size > _KERNEL_LIVE else np.arange(size)
        for i, (edges, deltas, floor) in enumerate(tables):
            if live is None:
                coin = stream.random_raw(size) < _HALF
                draws = stream.random_raw(2 * size).reshape(2, size)  # gate, canceller
                hit = (draws >= floor) & alive
            else:
                words = _philox_words(key, (3 * i + np.arange(3)[:, None]) * size + live)
                coin, draws = words[0] < _HALF, words[1:]
                hit = draws >= floor
            moved = np.flatnonzero(hit[0] | hit[1])
            if moved.size:
                branch = np.zeros((2, moved.size), dtype=np.intp)
                hit = hit[:, moved]
                uniforms = (draws[:, moved][hit] >> _DOUBLE_SHIFT) * 2.0 ** -53
                branch[hit] = np.searchsorted(edges, uniforms, side="right")
                step = deltas[branch[0]] - deltas[branch[1]]
                err[moved if live is None else live[moved]] += np.where(coin[moved], step, -step)
            if live is None:
                alive &= ~coin
                stop += alive
                if np.count_nonzero(alive) <= _KERNEL_LIVE:
                    live = np.flatnonzero(alive)
            else:
                live = live[~coin]
                stop[live] += 1
            if live is not None and live.size == 0:
                break
        if live is None:
            live = np.flatnonzero(alive)
        x = np.sin(err) ** 2
        # digital branch: Z-flip with rate p_dig on top of the analog deviation
        s2 = x[live]
        x[live] = (1.0 - report.p_digital) * s2 + report.p_digital * (1.0 - s2)
        clocks = stop_clocks[stop]
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


def v2_octave_average(k: int, p_ph: float, c1: float) -> float:
    """:func:`v2_rus_factor` averaged over the 16 angles CALIBRATION_ANCHOR * 2^(j/16), j < 16."""
    vals = [v2_rus_factor(theta_l, k, p_ph, c1) for theta_l in _OCTAVE]
    return sum(vals) / len(vals)


@functools.lru_cache(maxsize=None)
def calibrate_c1(k: int = 7, p_ph: float = 1e-3) -> float:
    """Fit c_1 so the previous-generation RUS factor matches V2_RUS_FACTOR.

    The factor oscillates with log2(theta_l) (period one octave), so the
    calibration matches :func:`v2_octave_average`.  Bisection on log(c_1) is
    safe: the averaged factor is monotone in c_1.

    Each bisection step runs :func:`v2_rus_factor`'s switch loop over trial
    rows built once per call.  The answer is then checked through
    :func:`v2_octave_average` itself: a ValueError is raised unless it is
    V2_RUS_FACTOR within 1e-6.  p_ph must keep CALIBRATION_ANCHOR * p_ph > 0.
    """
    if not CALIBRATION_ANCHOR * p_ph > 0.0:  # the v2 factor divides by theta_l * p_ph
        raise ValueError(f"need {CALIBRATION_ANCHOR} * p_ph > 0, got p_ph = {p_ph!r}")
    trials = [list(_v2_trials(theta_l, k, p_ph)) for theta_l in _OCTAVE]

    def averaged_alpha(c1: float) -> float:
        vals = [_v2_alpha(theta_l, rows, p_ph, c1) for theta_l, rows in zip(_OCTAVE, trials)]
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

    mean = v2_octave_average(k, p_ph, c1)
    if abs(mean - mitigation.V2_RUS_FACTOR) > 1e-6:
        raise ValueError(
            f"calibrated c1 = {c1!r} (k = {k}, p_ph = {p_ph!r}) gives an octave-averaged "
            f"v2 factor {mean!r}, not {mitigation.V2_RUS_FACTOR}"
        )
    return c1
