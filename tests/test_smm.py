import dataclasses
import itertools
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from starsmm import pcec, smm, tmr, zchan
from test_pcec import libm_residual


def _config(theta_l, k=5, p_ph=1e-3, c1=1.0, **kwargs):
    params = tmr.TmrParams(k=k, p_ph=p_ph, pass_coeffs=(c1,))
    kwargs.setdefault("threshold_ratio", 8.0)
    return smm.SmmConfig(theta_l=theta_l, tmr_params=params, **kwargs)


def _channel_enumeration(config):
    """The trajectory enumeration composed from pcec's channels with zchan.

    Independent test oracle for :func:`smm.enumerate_error_rate`'s closed
    form: per trial it composes ``pcec.build_canceller`` after
    ``pcec.build_noisy_channel``, multiplies the coherence factors relative
    to theta_rus across trials and scores each trajectory class as
    0.5 (1 - Re acc).  With acc near 1 that cancels: its absolute error is a
    few ulps of 1 per trial, which at the figure angles is a large share of P_L.
    """
    report = smm.effective_error_rate(config)
    total = 0.0
    acc = 1.0 + 0.0j
    for row in report.trials:
        row_table = row.thetas, row.qbars
        net = zchan.compose(pcec.build_canceller(*row_table), pcec.build_noisy_channel(*row_table))
        acc *= zchan.coherence_factor(net, row.theta_rus)
        total += 2.0 ** (-(row.index + 1)) * 0.5 * (1.0 - acc.real)
    # digital branch: all n analog trials plus the synthesis/magic flip
    total += report.p_switch * 0.5 * (1.0 - (acc * (1.0 - 2.0 * report.p_digital)).real)
    return total


def _reference_monte_carlo(config, shots, seed):
    """A trajectory-by-trajectory sampler with dense per-trajectory state.

    Independent test oracle for :func:`smm.monte_carlo`, which draws counts:
    the two must agree in law.  Each chunk of 2^17 trajectories draws from
    the Philox stream keyed by (seed, chunk index): at every trial,
    ``Generator.random((live, 3))`` gives the coin, gate and canceller
    uniforms of the still-live trajectories in index order.  Every
    trajectory keeps its deviation (advanced on every trial it runs),
    whether it ever drew a non-identity branch, and its stopping trial.
    """
    report = smm.effective_error_rate(config)
    n = len(report.trials)
    p = report.p_digital
    tables = []
    for row in report.trials:
        edges = np.cumsum(row.qbars)
        edges[-1] = 1.0
        tables.append((edges, np.array(row.thetas) - row.theta_rus))
    clocks = [0.0]
    for row in report.trials:
        clocks.append(clocks[-1] + row.clocks)
    clocks.append(clocks[-1] + smm._digital_clocks(config.timing_mode, report.n_syn))
    stop_clocks = np.array(clocks[1:])  # by stopping trial; n_rus for the digital branch

    sum_x = sum_x2 = sum_t = sum_t2 = 0.0
    n_digital = 0
    chunk = 1 << 17
    for index, done in enumerate(range(0, shots, chunk)):
        size = min(chunk, shots - done)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
        err = np.zeros(size)
        hit = np.zeros(size, dtype=bool)
        stop = np.full(size, n)
        live = np.arange(size)
        for i, (edges, dl) in enumerate(tables):
            u = rng.random((live.size, 3))
            j_gate = np.searchsorted(edges, u[:, 1], side="right")
            j_canc = np.searchsorted(edges, u[:, 2], side="right")
            coin = u[:, 0] < 0.5
            step = dl[j_gate] - dl[j_canc]
            err[live] += np.where(coin, step, -step)
            hit[live] |= (j_gate > 0) | (j_canc > 0)
            stop[live[coin]] = i
            live = live[~coin]

        digital = stop == n
        s2 = np.sin(err[hit]) ** 2
        x = np.where(digital[hit], (1.0 - p) * s2 + p * (1.0 - s2), s2)
        clean = int(np.count_nonzero(digital & ~hit))
        sum_x += float(x.sum()) + clean * p
        sum_x2 += float((x * x).sum()) + clean * p ** 2
        counts = np.bincount(stop, minlength=n + 1)
        sum_t += float((counts * stop_clocks).sum())
        sum_t2 += float((counts * stop_clocks ** 2).sum())
        n_digital += int(np.count_nonzero(digital))

    mean_x = sum_x / shots
    mean_t = sum_t / shots
    p_sw = n_digital / shots
    return smm.McReport(
        shots=shots,
        seed=seed,
        p_l_hat=mean_x,
        p_l_se=math.sqrt(max(sum_x2 / shots - mean_x ** 2, 0.0) / shots),
        clocks_hat=mean_t,
        clocks_se=math.sqrt(max(sum_t2 / shots - mean_t ** 2, 0.0) / shots),
        p_switch_hat=p_sw,
        p_switch_se=math.sqrt(p_sw * (1.0 - p_sw) / shots),
    )


class TestNRus:
    def test_equal_angles_pure_digital(self):
        assert smm.n_rus(1e-3, 1e-3) == 0

    def test_power_of_two_ratio(self):
        assert smm.n_rus(1e-3, 128e-3) == 7

    def test_generic_ratio(self):
        assert smm.n_rus(1e-5, 0.05) == 13

    def test_rejects_inverted_inputs(self):
        for theta_l, theta_th in ((0.02, 0.01), (-1e-4, 0.01), (math.nan, 0.01), (0.0, -1.0)):
            with pytest.raises(ValueError):
                smm.n_rus(theta_l, theta_th)

    def test_zero_angle_runs_no_trial(self):
        assert smm.n_rus(0.0, 0.01) == 0

    @given(theta=st.floats(5e-324, 1e3), n=st.integers(0, 1074))
    @example(theta=5e-324, n=1074)
    @example(theta=1e-310, n=1030)
    def test_exact_at_power_of_two_ratios(self, theta, n):
        # a subnormal theta reaches ratios past 2^1024, which no float holds
        try:
            threshold = math.ldexp(theta, n)
        except OverflowError:
            assume(False)
        assert smm.n_rus(theta, threshold) == n

    @given(a=st.floats(5e-324, 1e3), b=st.floats(5e-324, 1e3))
    def test_matches_ratio_form_off_integers(self, a, b):
        # the log difference agrees with log2 of the ratio wherever that ratio is a float
        theta_l, theta_th = min(a, b), max(a, b)
        assume(theta_th / theta_l < math.inf)
        log_ratio = math.log2(theta_th / theta_l)
        assume(abs(log_ratio - round(log_ratio)) > 2e-12)
        assert smm.n_rus(theta_l, theta_th) == math.ceil(log_ratio - 1e-12)


class TestSwitchProbability:
    @staticmethod
    def _p_switch(theta_l, theta_th):
        config = _config(theta_l, threshold_ratio=None, theta_th=theta_th)
        return smm.effective_error_rate(config).p_switch

    def test_values(self):
        assert self._p_switch(1e-3, 1e-3) == 1.0
        assert self._p_switch(1e-3, 0.128) == 0.0078125
        assert self._p_switch(1e-5, 0.05) == 2.0 ** -13

    def test_bracketing_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            theta_l = 10.0 ** rng.uniform(-7, -2)
            ratio = 10.0 ** rng.uniform(0, 3)
            theta_th = min(theta_l * ratio, smm.MAX_THRESHOLD)
            p = self._p_switch(theta_l, theta_th)
            assert theta_l / (2 * theta_th) < p <= theta_l / theta_th * (1 + 1e-12)


class TestSynthesisBudget:
    """The synthesis budget delta = max(p_m, 0.1 2^N p_analog) and its T-count."""

    def test_magic_floor(self):
        # no analog trial: delta = p_m = 2e-9 and N_syn = 87
        rep = smm.effective_error_rate(_config(1e-3, threshold_ratio=1.0, p_m=2e-9))
        assert (rep.p_analog, rep.n_syn) == (0.0, 87)
        assert rep.p_digital == 2e-9 + 2e-9 * 87 == rep.p_l

    def test_analog_dominated(self):
        rep = smm.effective_error_rate(_config(1e-3, threshold_ratio=128.0, p_m=2e-9))
        assert rep.n_rus == 7
        delta = 0.1 * 2 ** 7 * rep.p_analog
        assert delta > 2e-9
        assert rep.n_syn == math.ceil(3 * math.log2(1 / delta))
        assert rep.p_digital == delta + 2e-9 * rep.n_syn

    def test_monotone_in_p_analog(self):
        # p_ph = 0 first: no residual, so delta sits at the magic floor p_m
        setups = [dict(p_ph=0.0)] + [dict(c1=c1) for c1 in (1e-4, 1e-2, 1.0)]
        reports = [
            smm.effective_error_rate(_config(1e-4, threshold_ratio=32.0, p_m=2e-9, **setup))
            for setup in setups
        ]
        assert [r.p_analog for r in reports] == sorted(r.p_analog for r in reports)
        deltas = [r.p_digital - 2e-9 * r.n_syn for r in reports]
        assert deltas[0] == pytest.approx(2e-9, rel=1e-12)
        assert deltas == sorted(deltas)

    def test_no_synthesis_without_errors(self):
        rep = smm.effective_error_rate(_config(1e-4, p_ph=0.0, p_m=0.0))
        assert (rep.p_analog, rep.p_digital, rep.n_syn) == (0.0, 0.0, 0)


class TestEffectiveErrorRate:
    def test_noiseless_gate(self):
        rep = smm.effective_error_rate(_config(1e-4, p_ph=0.0, p_m=0.0))
        assert rep.p_l == 0.0
        assert rep.alpha_rus == 0.0

    def test_zero_angle_identity_report(self):
        identity = smm.SmmReport(
            n_rus=0, p_switch=1.0, p_analog=0.0, p_digital=0.0, n_syn=0, p_l=0.0, alpha_rus=0.0,
            expected_clocks=0.0, trials=(), out_of_regime=False,
        )
        for timing_mode, p_m, p_ph in itertools.product(
            ["pipelined", "latency"], [0.0, 2e-9, 1e-3], [0.0, 1e-3]
        ):
            cfg = _config(0.0, p_ph=p_ph, theta_th=0.01, threshold_ratio=None, p_m=p_m,
                          timing_mode=timing_mode)
            assert smm.effective_error_rate(cfg) == identity, (timing_mode, p_m, p_ph)

    def test_alpha_identity(self):
        cfg = _config(2e-4, k=7)
        rep = smm.effective_error_rate(cfg)
        assert rep.alpha_rus == rep.p_l / (2e-4 * 1e-3)

    def test_mirror_symmetry(self):
        up = smm.effective_error_rate(_config(1e-4, theta_th=0.01, threshold_ratio=None))
        down = smm.effective_error_rate(_config(-1e-4, theta_th=0.01, threshold_ratio=None))
        assert up.p_l == down.p_l
        assert up.expected_clocks == down.expected_clocks

    def test_trial_table_matches_residuals(self):
        cfg = _config(1e-3, k=5, threshold_ratio=16.0)
        rep = smm.effective_error_rate(cfg)
        assert rep.n_rus == 4 and len(rep.trials) == 4
        for row in rep.trials:
            model = tmr.output_model_for_logical(cfg.tmr_params, row.theta_rus)
            assert row.residual == pytest.approx(libm_residual(model), rel=1e-13)
        expected_analog = sum(2.0 ** -r.index * r.residual for r in rep.trials)
        assert rep.p_analog == pytest.approx(expected_analog, rel=1e-13)

    def test_trial_rows_are_their_branch_table_rows(self):
        cfg = _config(1e-3, k=5, threshold_ratio=16.0, timing_mode="latency")
        rep = smm.effective_error_rate(cfg)
        for row in rep.trials:
            p_ideal, thetas, qbars = tmr.branch_table(cfg.tmr_params, [row.theta_rus])
            assert (row.thetas, row.qbars) == (tuple(thetas[0].tolist()), tuple(qbars[0].tolist()))
            assert row.clocks == 1 / p_ideal[0] + 1.0

    def test_leading_order_mode(self):
        cfg_full = _config(1e-3, k=7, threshold_ratio=16.0)
        cfg_lead = _config(1e-3, k=7, threshold_ratio=16.0, include_higher_orders=False)
        full = smm.effective_error_rate(cfg_full)
        lead = smm.effective_error_rate(cfg_lead)
        assert lead.p_analog <= full.p_analog

    def test_out_of_regime_flag(self):
        assert smm.effective_error_rate(_config(1e-8, k=3)).out_of_regime
        assert not smm.effective_error_rate(_config(1e-3, k=3)).out_of_regime

    def test_finite_p_m_upturn_non_monotone(self):
        # fixed ratio, p_m = 2e-9: the digital-stage cost dominates at small
        # angles, so alpha turns back up somewhere in [1e-8, 1e-3]
        alphas = []
        for theta_l in np.geomspace(1e-8, 1e-3, 26):
            cfg = _config(theta_l, k=7, c1=0.04, threshold_ratio=128.0, p_m=2e-9)
            alphas.append(smm.effective_error_rate(cfg).alpha_rus)
        i_min = int(np.argmin(alphas))
        assert 0 < i_min < len(alphas) - 1
        assert alphas[0] > alphas[i_min] < alphas[-1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _config(0.02, threshold_ratio=None, theta_th=0.01)  # theta_l > theta_th
        with pytest.raises(ValueError):
            _config(1e-4, threshold_ratio=None, theta_th=0.5)  # above pi/8
        with pytest.raises(ValueError):
            _config(1e-4, threshold_ratio=8.0, theta_th=0.01)  # both set
        with pytest.raises(ValueError):
            _config(1e-4, p_m=0.1)


class TestDomain:
    EDGES = [
        0.0, -0.0, math.nextafter(smm.MAX_THRESHOLD, 0.0), smm.MAX_THRESHOLD,
        math.nextafter(smm.MAX_THRESHOLD, 1.0), smm.MAX_THRESHOLD + 1e-15,
        math.nextafter(smm.MAX_THRESHOLD + 1e-15, 1.0), math.nan, math.inf,
    ]

    @settings(max_examples=300, deadline=None)
    @given(
        theta_l=st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGES),
        theta_th=st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGES),
        negative=st.booleans(),
    )
    def test_mask_accepts_exactly_the_configs(self, theta_l, theta_th, negative):
        theta_l = -theta_l if negative else theta_l
        params = tmr.TmrParams(k=5, p_ph=1e-3)
        try:
            smm.SmmConfig(theta_l=theta_l, tmr_params=params, theta_th=theta_th)
            accepted = True
        except ValueError:
            accepted = False
        assert smm.in_domain(theta_l, theta_th) == accepted
        assert smm.in_domain([theta_l, 0.0], [theta_th, 0.01]).tolist() == [accepted, True]

    def test_edges(self):
        pi_8 = smm.MAX_THRESHOLD
        thresholds = [pi_8, math.nextafter(pi_8, 1.0), pi_8 + 1e-15, 1.0, 0.0, -0.01, math.nan]
        assert smm.in_domain(0.0, thresholds).tolist() == [True] * 3 + [False] * 4
        assert smm.in_domain([-0.01, 0.01, 0.0101, math.nan, -math.inf], 0.01).tolist() == [
            True, True, False, False, False,
        ]


def _libm_gate(params, theta_l, theta_th, p_m=2e-9, include_higher_orders=True,
               timing_mode="pipelined"):
    """(p_l, alpha_rus, expected_clocks, out_of_regime) of one gate by the libm route.

    An independent reference for the SMM evaluator, which reads
    ``tmr.branch_table``: each trial's table comes from the scalar
    ``tmr.output_model_for_logical`` and its residual from the libm loop
    ``test_pcec.libm_residual`` (2 qbar_1 sin^2(Delta_1) at leading order), the
    2^-i-weighted terms are added left to right, and ``smm._finish`` closes
    the gate.
    """
    if theta_l == 0.0:
        return 0.0, 0.0, 0.0, False
    mag = abs(theta_l)
    n = smm.n_rus(mag, theta_th)
    p_analog = clocks = 0.0
    for i in range(n):
        model = tmr.output_model_for_logical(params, math.ldexp(mag, i))
        p_analog += 2.0 ** -i * libm_residual(model, include_higher_orders)
        clocks += 2.0 ** -i * smm._analog_clocks(timing_mode, model.p_ideal)
    finish = smm._finish(params, mag, n, p_analog, clocks, p_m, timing_mode)
    return tuple(finish[name].item()
                 for name in ("p_l", "alpha_rus", "expected_clocks", "out_of_regime"))


class TestErrorRates:
    """Both public forms of the SMM evaluator against the libm route of :func:`_libm_gate`."""

    # numpy's tan/arctan/pow differ from libm in the last bit; the rows
    # checked so far differ by at most ~28 eps
    REL = 1e-13

    def _compare(self, params, theta_l, theta_th, exact=False, **kwargs):
        rates = smm.error_rates(params, theta_l, theta_th, **kwargs)
        theta_th = np.broadcast_to(theta_th, np.shape(theta_l))
        for r, (x, th) in enumerate(zip(theta_l, theta_th)):
            *want, flag = _libm_gate(params, float(x), float(th), **kwargs)
            config = smm.SmmConfig(
                theta_l=float(x), tmr_params=params, theta_th=float(th), **kwargs
            )
            rep = smm.effective_error_rate(config)
            for got in ((rates.p_l[r], rates.alpha_rus[r], rates.expected_clocks[r]),
                        (rep.p_l, rep.alpha_rus, rep.expected_clocks)):
                if exact:
                    assert got == tuple(want)
                else:
                    assert got == pytest.approx(want, rel=self.REL, abs=0.0)
            assert rates.out_of_regime[r] == rep.out_of_regime == flag
        return rates

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 15),
        c1=st.floats(0.01, 1.0),
        p_m=st.sampled_from([0.0, 2e-9, 1e-6]),
        higher=st.booleans(),
        timing_mode=st.sampled_from(["pipelined", "latency"]),
        rows=st.lists(
            st.tuples(st.floats(-12.0, math.log10(smm.MAX_THRESHOLD)), st.floats(0.0, 40.0)),
            min_size=1, max_size=12,
        ),
    )
    def test_matches_scalar_loop(self, k, c1, p_m, higher, timing_mode, rows):
        theta_l = np.minimum([10.0 ** e for e, _ in rows], smm.MAX_THRESHOLD)
        theta_th = np.minimum(theta_l * 2.0 ** np.array([r for _, r in rows]), smm.MAX_THRESHOLD)
        self._compare(
            tmr.TmrParams(k=k, p_ph=1e-3, pass_coeffs=(c1,)), theta_l, theta_th,
            p_m=p_m, include_higher_orders=higher, timing_mode=timing_mode,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 15),
        c1=st.floats(0.01, 1.0),
        p_m=st.sampled_from([0.0, 2e-9, 1e-6]),
        higher=st.booleans(),
        timing_mode=st.sampled_from(["pipelined", "latency"]),
        rows=st.lists(
            st.tuples(
                st.just(0.0) | st.sampled_from([5e-324, 3e-321, 1e-310])
                | st.floats(-12.0, math.log10(smm.MAX_THRESHOLD)).map(lambda e: 10.0 ** e),
                st.booleans(),
                st.floats(0.0, 40.0),
            ),
            min_size=1, max_size=8,
        ),
    )
    def test_report_equals_its_row_bit_for_bit(self, k, c1, p_m, higher, timing_mode, rows):
        # theta_L = 0, negative and subnormal gates; subnormal ones run up to 1073 trials
        params = tmr.TmrParams(k=k, p_ph=1e-3, pass_coeffs=(c1,))
        theta_th = [smm.MAX_THRESHOLD * 2.0 ** -s for *_, s in rows]
        theta_l = [(-1.0 if negative else 1.0) * min(x, th)
                   for (x, negative, _), th in zip(rows, theta_th)]
        setup = dict(p_m=p_m, include_higher_orders=higher, timing_mode=timing_mode)
        rates = smm.error_rates(params, theta_l, theta_th, **setup)
        for r, (x, th) in enumerate(zip(theta_l, theta_th)):
            rep = smm.effective_error_rate(
                smm.SmmConfig(theta_l=x, tmr_params=params, theta_th=th, **setup))
            # ==, with NaN equal to NaN: alpha_rus = 0 / 0 where theta_L * p_ph underflows
            np.testing.assert_array_equal(
                [getattr(rep, name) for name in smm.SweepRates.__dataclass_fields__],
                [getattr(rates, name)[r] for name in smm.SweepRates.__dataclass_fields__],
            )

    def test_rows_do_not_depend_on_the_block(self, monkeypatch):
        params = tmr.TmrParams(k=7, p_ph=1e-3, pass_coeffs=(0.04,))
        theta_l = np.geomspace(1e-9, 1e-3, 11) * np.resize([1.0, -1.0, 0.0], 11)
        whole = smm.error_rates(params, theta_l, 0.01, timing_mode="latency")
        monkeypatch.setattr(smm, "_SWEEP_PAIRS", 40)  # blocks of 2, 2 and 4 gates
        blocked = smm.error_rates(params, theta_l, 0.01, timing_mode="latency")
        for name in smm.SweepRates.__dataclass_fields__:
            assert np.array_equal(getattr(whole, name), getattr(blocked, name))

    def test_subnormal_angles(self):
        # up to 1073 trials, with thresholds past 2^1024 |theta_L|
        theta_l = np.repeat([1e-310, 5e-324, 3e-321], 3)
        theta_th = np.tile([smm.MAX_THRESHOLD, 0.39, 0.01], 3)
        self._compare(tmr.TmrParams(k=7, p_ph=0.0, pass_coeffs=(1.0,)), theta_l, theta_th)
        # at p_ph > 0, 5e-324 * p_ph underflows to 0 and alpha_rus = 0 / 0 is undefined
        defined = theta_l != 5e-324
        self._compare(
            tmr.TmrParams(k=7, p_ph=1e-2, pass_coeffs=(1.0,)), theta_l[defined], theta_th[defined]
        )

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 15),
        c1=st.floats(0.01, 1.0),
        p_m=st.sampled_from([0.0, 2e-9, 1e-6]),
        higher=st.booleans(),
        timing_mode=st.sampled_from(["pipelined", "latency"]),
        log_theta=st.floats(-12.0, math.log10(smm.MAX_THRESHOLD)),
        log2_ratio=st.floats(0.0, 40.0),
    )
    def test_p_l_mirror_symmetric(self, k, c1, p_m, higher, timing_mode, log_theta, log2_ratio):
        # P_L(-theta_L) == P_L(theta_L) exactly, on the scalar and the array path
        params = tmr.TmrParams(k=k, p_ph=1e-3, pass_coeffs=(c1,))
        theta_l = min(10.0 ** log_theta, smm.MAX_THRESHOLD)
        theta_th = min(theta_l * 2.0 ** log2_ratio, smm.MAX_THRESHOLD)
        setup = dict(p_m=p_m, include_higher_orders=higher, timing_mode=timing_mode)
        up, down = (
            smm.effective_error_rate(
                smm.SmmConfig(theta_l=x, tmr_params=params, theta_th=theta_th, **setup)
            )
            for x in (theta_l, -theta_l)
        )
        assert up.p_l == down.p_l
        rates = smm.error_rates(params, [theta_l, -theta_l], theta_th, **setup)
        assert rates.p_l[0] == rates.p_l[1]

    @pytest.mark.parametrize("timing_mode", ["pipelined", "latency"])
    def test_threshold_equal_to_angle_runs_no_trial(self, timing_mode):
        params = tmr.TmrParams(k=7, p_ph=1e-3, pass_coeffs=(0.04,))
        theta_l = np.array([1e-6, 1e-3, smm.MAX_THRESHOLD])
        # no trial runs, so both paths finish from p_analog = 0 and agree exactly
        rates = self._compare(
            params, theta_l, theta_l, exact=True, p_m=2e-9, timing_mode=timing_mode
        )
        p_l, _ = smm.synthesis_only_gate(2e-9, 2e-9)
        assert np.all(rates.p_l == p_l)

    def test_zero_residual_and_zero_p_m(self):
        # p_ph = 0 leaves no residual on either path, so they agree exactly
        params = tmr.TmrParams(k=5, p_ph=0.0)
        rates = self._compare(params, np.array([1e-7, 1e-4]), 0.01, exact=True, p_m=0.0)
        assert np.all(rates.p_l == 0.0) and np.all(rates.alpha_rus == 0.0)

    def test_zero_p_ph_with_magic_errors(self):
        # as above: only the shared digital stage contributes to P_L
        params = tmr.TmrParams(k=5, p_ph=0.0)
        rates = self._compare(params, np.array([1e-7, 1e-4]), 0.01, exact=True, p_m=2e-9)
        assert np.all(rates.p_l > 0.0) and np.all(np.isinf(rates.alpha_rus))
        assert not rates.out_of_regime.any()

    def test_zero_and_negative_angles(self):
        params = tmr.TmrParams(k=5, p_ph=1e-3, pass_coeffs=(0.04,))
        rates = self._compare(params, np.array([0.0, -1e-4, 1e-4]), 0.01, p_m=2e-9)
        assert rates.p_l[0] == rates.expected_clocks[0] == 0.0
        assert rates.p_l[1] == rates.p_l[2]

    @pytest.mark.parametrize(
        "theta_l,theta_th,kwargs",
        [
            (0.02, 0.01, {}),
            (1e-4, 0.5, {}),
            (1e-4, 0.0, {}),
            (math.nan, 0.01, {}),
            (1e-4, math.nan, {}),
            (1e-4, 0.01, {"p_m": 0.1}),
            (1e-4, 0.01, {"timing_mode": "fast"}),
        ],
    )
    def test_domain_matches_config(self, theta_l, theta_th, kwargs):
        params = tmr.TmrParams(k=5, p_ph=1e-3)
        with pytest.raises(ValueError):
            smm.SmmConfig(theta_l=theta_l, tmr_params=params, theta_th=theta_th, **kwargs)
        with pytest.raises(ValueError):
            smm.error_rates(params, np.array([1e-5, theta_l]), theta_th, **kwargs)


class TestRefusedSynthesis:
    """A synthesis accuracy delta = max(p_m, 0.1 * 2^n * p_analog) of 1 or more."""

    # 2^n p_analog grows with the trial count: n_rus = 2 evaluates, n_rus = 7 and 8 do not
    PARAMS = tmr.TmrParams(k=2, p_ph=0.1, pass_coeffs=(1e6,))
    MESSAGE = "gate |theta_L| = 0.0001, n_rus = 7: delta must lie in (0, 1)"

    def test_array_path_names_the_first_failing_row(self):
        rates = smm.error_rates(self.PARAMS, [1e-4], [4e-4], p_m=0.0)
        assert rates.p_l[0] == pytest.approx(1.585, rel=1e-3)
        for thresholds in ([4e-4, 1.28e-2], [4e-4, 1.28e-2, 2.56e-2]):
            with pytest.raises(ValueError) as info:
                smm.error_rates(self.PARAMS, [1e-4] * len(thresholds), thresholds, p_m=0.0)
            assert str(info.value) == self.MESSAGE

    def test_scalar_path_names_the_gate(self):
        config = smm.SmmConfig(theta_l=-1e-4, tmr_params=self.PARAMS, theta_th=1.28e-2, p_m=0.0)
        with pytest.raises(ValueError) as info:
            smm.effective_error_rate(config)
        assert str(info.value) == self.MESSAGE


class TestPhotonLossDependence:
    """P_L against p_ph at a fixed gate, with c1 as the only pass coefficient."""

    # leading order saturates: q_1 falls from 0.3784 to 0.3658 as p_ph goes 0.072 -> 0.1 and
    # weight moves to j >= 2, so P_L falls 0.32734 -> 0.32008 (the full model rises)
    @example(k=15, c1=1.0, p_m=0.0, higher=False, log_theta=-0.5, log2_ratio=1.0, log_p_min=-2.0)
    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(2, 15),
        c1=st.floats(0.01, 1.0),
        p_m=st.sampled_from([0.0, 2e-9, 1e-6]),
        higher=st.booleans(),
        log_theta=st.floats(-12.0, math.log10(smm.MAX_THRESHOLD)),
        log2_ratio=st.floats(0.0, 40.0),
        log_p_min=st.floats(-8.0, -2.0),
    )
    def test_p_l_non_negative_and_monotone_without_magic_errors(
        self, k, c1, p_m, higher, log_theta, log2_ratio, log_p_min
    ):
        theta_l = min(10.0 ** log_theta, smm.MAX_THRESHOLD)
        theta_th = min(theta_l * 2.0 ** log2_ratio, smm.MAX_THRESHOLD)
        p_phs = [0.0, *np.geomspace(10.0 ** log_p_min, tmr.MAX_P_PH, 8)]
        p_ls = [
            smm.error_rates(
                tmr.TmrParams(k=k, p_ph=p_ph, pass_coeffs=(c1,)), theta_l, theta_th,
                p_m=p_m, include_higher_orders=higher,
            ).p_l.item()
            for p_ph in p_phs
        ]
        assert min(p_ls) >= 0.0
        if p_m == 0.0 and higher:
            assert p_ls == sorted(p_ls)

    def test_t_count_step_breaks_monotonicity_at_finite_p_m(self):
        # delta grows with p_ph, so N_syn steps down from 87 to 86 and the
        # p_m N_syn term drops by more than the analog residual gains
        reports = [
            smm.effective_error_rate(_config(
                1e-9, k=2, p_ph=p_ph, c1=0.0367, threshold_ratio=2.0 ** 17, p_m=2e-9
            ))
            for p_ph in (0.00013667163564620073, 0.00014481182276745346)
        ]
        assert [r.n_syn for r in reports] == [87, 86]
        assert [r.p_l for r in reports] == [1.515110294738445e-12, 1.5110247360004137e-12]


class TestExpectedClocks:
    def test_pure_digital_is_t_digital_only(self):
        cfg = _config(0.01, threshold_ratio=1.0, timing_mode="latency")
        rep = smm.effective_error_rate(cfg)
        assert rep.n_rus == 0
        per_t = 10.0 / 2 + 1.0
        assert rep.expected_clocks == pytest.approx(rep.n_syn * per_t)

    def test_pipelined_anchor_band(self):
        # ratio-64 gate lands within a clock of 3 across small target angles
        c1 = smm.calibrate_c1()
        for theta_l in (1e-3, 1e-4, 1e-5, 1e-6):
            cfg = _config(theta_l, k=7, c1=c1, threshold_ratio=64.0)
            assert 2.5 <= smm.effective_error_rate(cfg).expected_clocks <= 3.5

    def test_synthesis_comparator_cost(self):
        p_l, clocks = smm.synthesis_only_gate(delta=2e-9)
        assert clocks == 87 * (10.0 / 2 + 1.0) == 522.0
        assert p_l == pytest.approx(2e-9 + 2e-9 * 87)

    def test_per_trajectory_clocks_increase_with_trial_count(self):
        cfg = _config(1e-4, k=5, threshold_ratio=32.0, timing_mode="latency")
        rep = smm.effective_error_rate(cfg)
        cumulative = np.cumsum([row.clocks for row in rep.trials])
        assert all(b > a for a, b in zip(cumulative, cumulative[1:]))


class TestEnumerationOracle:
    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("ratio", [2.0, 16.0])
    def test_matches_analytic_within_cross_terms(self, k, ratio):
        cfg = _config(0.005, k=k, threshold_ratio=ratio)
        rep = smm.effective_error_rate(cfg)
        exact = smm.enumerate_error_rate(cfg)
        q_max = max(
            tmr.output_model_for_logical(cfg.tmr_params, row.theta_rus).error_weight()
            for row in rep.trials
        )
        assert abs(rep.p_l - exact) <= 10.0 * q_max ** 2

    def test_leading_order_with_higher_branches_raises(self):
        # k = 5 keeps j_max = 2 branches; the leading-order P_L drops the second
        cfg = _config(0.02, k=5, threshold_ratio=2.0, p_m=0.0, include_higher_orders=False)
        assert cfg.tmr_params.j_max == 2
        with pytest.raises(ValueError, match="j_max = 1"):
            smm.enumerate_error_rate(cfg)

    def test_leading_order_at_j_max_one_matches_analytic(self):
        params = tmr.TmrParams(k=5, p_ph=1e-3, pass_coeffs=(smm.calibrate_c1(),), j_max=1)
        setup = dict(theta_l=0.02, tmr_params=params, threshold_ratio=2.0, p_m=0.0)
        lead = smm.SmmConfig(include_higher_orders=False, **setup)
        rep = smm.effective_error_rate(lead)
        assert rep.p_l == smm.effective_error_rate(smm.SmmConfig(**setup)).p_l
        q_sum = sum(sum(row.qbars[1:]) for row in rep.trials)
        assert abs(rep.p_l - smm.enumerate_error_rate(lead)) <= 10.0 * q_sum ** 2

    @pytest.mark.parametrize("timing_mode", ["pipelined", "latency"])
    def test_zero_angle_is_the_identity(self, timing_mode):
        cfg = _config(0.0, theta_th=0.01, threshold_ratio=None, timing_mode=timing_mode)
        exact = smm.enumerate_error_rate(cfg)
        assert exact == 0.0 and math.copysign(1.0, exact) == 1.0

    def test_out_of_pcec_regime_raises(self):
        # trials 0-2 keep their error weight below 1/2 (0.348, 0.416, 0.492), trial 3 does not
        cfg = _config(0.02, k=5, p_ph=0.1, c1=5.0, threshold_ratio=16.0)
        with pytest.raises(pcec.ModelRegimeError, match="0.573 >= 1/2"):
            smm.enumerate_error_rate(cfg)

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(2, 15),
        log_theta=st.floats(-9.0, math.log10(smm.MAX_THRESHOLD)),
        log2_ratio=st.floats(0.0, 20.0),
        fixed=st.booleans(),
        log_p_ph=st.floats(-5.0, -1.0),
        c1=st.floats(1e-3, 5.0),
        p_m=st.sampled_from([0.0, 2e-9, 1e-3]),
        timing_mode=st.sampled_from(["pipelined", "latency"]),
        leading=st.booleans(),
    )
    # the pinned gate; a leading-order gate at j_max = 1; one outside PCEC's regime
    @example(k=5, log_theta=math.log10(0.02), log2_ratio=3.0, fixed=False, log_p_ph=-3.0,
             c1=smm.calibrate_c1(7, 1e-3), p_m=2e-9, timing_mode="pipelined", leading=False)
    @example(k=5, log_theta=-6.0, log2_ratio=12.0, fixed=True, log_p_ph=-3.0, c1=0.04,
             p_m=0.0, timing_mode="latency", leading=True)
    @example(k=5, log_theta=math.log10(0.02), log2_ratio=4.0, fixed=False, log_p_ph=-1.0,
             c1=5.0, p_m=1e-3, timing_mode="pipelined", leading=False)
    def test_closed_form_matches_channel_composition(
        self, k, log_theta, log2_ratio, fixed, log_p_ph, c1, p_m, timing_mode, leading
    ):
        theta_l = 10.0 ** log_theta
        theta_th = theta_l * 2.0 ** log2_ratio
        if fixed:
            threshold = {"theta_th": min(theta_th, smm.MAX_THRESHOLD)}
        else:
            assume(theta_th <= smm.MAX_THRESHOLD)
            threshold = {"threshold_ratio": 2.0 ** log2_ratio}
        params = tmr.TmrParams(k=k, p_ph=10.0 ** log_p_ph, pass_coeffs=(c1,),
                               j_max=1 if leading else None)
        cfg = smm.SmmConfig(theta_l=theta_l, tmr_params=params, p_m=p_m,
                            include_higher_orders=not leading, timing_mode=timing_mode,
                            **threshold)
        try:
            want = _channel_enumeration(cfg)
        except pcec.ModelRegimeError:
            with pytest.raises(pcec.ModelRegimeError):
                smm.enumerate_error_rate(cfg)
            return
        n = smm.n_rus(theta_l, cfg.resolved_threshold())
        assert abs(smm.enumerate_error_rate(cfg) - want) <= 4.0 * (n + 1) * 2.0 ** -53

    @pytest.mark.parametrize("k", range(3, 12))
    def test_figure_scale_within_the_derived_bound(self, k):
        """0 <= P_L - exact <= (max_i S_i + 2 sum_i r_i) P_L at the figure angles.

        Trial i has error weight S_i = sum_{j>=1} qbar_j, residual r_i = Re h_i
        (the term P_L adds), h_i = sum_{j>=1} qbar_j (1 - e^{2i Delta_j}), and
        defect f_i = 2 r_i - |h_i|^2; D_i = 1 - prod_{i'<=i} (1 - f_i'),
        D_{-1} = 0, D = D_{n-1}, p = p_digital.  As D_i - D_{i-1} =
        f_i (1 - D_{i-1}), summing by parts gives

            exact = sum_{i<n} 2^-(i+1) D_i / 2 + 2^-n (D + 2p (1 - D)) / 2
                  = sum_i 2^-i (f_i / 2)(1 - D_{i-1}) + 2^-n p (1 - D),

        and with P_L = sum_i 2^-i r_i + 2^-n p,

            P_L - exact = sum_i 2^-i [(|h_i|^2 / 2)(1 - D_{i-1}) + r_i D_{i-1}]
                          + 2^-n p D  >=  0.

        Cauchy-Schwarz bounds |h|^2 = |sum_{j>=1} qbar_j (1 - e^{2i Delta_j})|^2
        by S sum_{j>=1} qbar_j |1 - e^{2i Delta_j}|^2 = 2 S r, so the |h|^2
        terms add up to at most max_i S_i sum_i 2^-i r_i <= max_i S_i P_L.
        D_{i-1} <= D, so the other terms add up to at most D P_L, and
        D <= sum_i f_i <= 2 sum_i r_i.  (max_i r_i alone does not bound D:
        with one trial and P_L dominated by p, the gap is about 2 r_0 P_L.)

        At theta_L = 1e-8 the relative bound is ~1e-8, so an error of 1e-3 in
        the residuals P_L adds shows here, where the absolute 10 (sum qbar)^2
        bounds above cannot see it.
        """
        params = tmr.TmrParams(k=k, p_ph=1e-3, pass_coeffs=(smm.calibrate_c1(k, 1e-3),))
        for theta_l in (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
            for threshold in ({"threshold_ratio": 128.0}, {"theta_th": 0.01}, {"theta_th": 0.05}):
                for p_m in (0.0, 2e-9):
                    cfg = smm.SmmConfig(theta_l=theta_l, tmr_params=params, p_m=p_m, **threshold)
                    rep = smm.effective_error_rate(cfg)
                    weight = max(math.fsum(row.qbars[1:]) for row in rep.trials)
                    residuals = math.fsum(row.residual for row in rep.trials)
                    gap = rep.p_l - smm.enumerate_error_rate(cfg)
                    bound = (weight + 2.0 * residuals) * rep.p_l
                    assert abs(gap) <= bound, (theta_l, threshold, p_m)


class TestMonteCarlo:
    def test_bit_reproducible(self):
        cfg = _config(0.01, k=5)
        a = smm.monte_carlo(cfg, 40_000, seed=123)
        b = smm.monte_carlo(cfg, 40_000, seed=123)
        assert a == b

    def test_seed_changes_stream(self):
        cfg = _config(0.01, k=5)
        a = smm.monte_carlo(cfg, 40_000, seed=123)
        b = smm.monte_carlo(cfg, 40_000, seed=124)
        assert a.p_l_hat != b.p_l_hat

    def test_switch_probability_within_4_sigma(self):
        cfg = _config(0.004, k=5, threshold_ratio=8.0)
        mc = smm.monte_carlo(cfg, 10 ** 6, seed=2024)
        assert abs(mc.p_switch_hat - 0.125) <= 4 * mc.p_switch_se

    def test_p_l_and_clocks_within_4_sigma(self):
        cfg = _config(0.02, k=5, threshold_ratio=8.0, timing_mode="latency")
        rep = smm.effective_error_rate(cfg)
        mc = smm.monte_carlo(cfg, 10 ** 6, seed=7)
        assert abs(mc.p_l_hat - rep.p_l) <= 4 * mc.p_l_se
        assert abs(mc.clocks_hat - rep.expected_clocks) <= 4 * mc.clocks_se

    def test_zero_angle(self):
        for timing_mode, p_m, p_ph, shots in itertools.product(
            ["pipelined", "latency"], [0.0, 2e-9, 1e-3], [0.0, 1e-3], [1, 100, 2 ** 17 + 5]
        ):
            cfg = _config(0.0, p_ph=p_ph, theta_th=0.01, threshold_ratio=None, p_m=p_m,
                          timing_mode=timing_mode)
            mc = smm.monte_carlo(cfg, shots, seed=1)
            assert mc == smm.McReport(shots, 1, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0), cfg

    def test_leading_order_with_higher_branches_raises(self):
        # k = 5 keeps j_max = 2 branches: the sampler draws them, the leading-order P_L drops them
        cfg = _config(0.02, k=5, threshold_ratio=2.0, p_m=0.0, include_higher_orders=False)
        assert cfg.tmr_params.j_max == 2
        with pytest.raises(ValueError, match="leading order needs j_max = 1"):
            smm.monte_carlo(cfg, 1000, seed=1)
        one = dataclasses.replace(cfg, tmr_params=dataclasses.replace(cfg.tmr_params, j_max=1))
        assert smm.monte_carlo(one, 1000, seed=1).shots == 1000

    # high-hit gates: p_ph = 1e-2 and c1 = 0.03 give a few 10^3 branch hits per 10^6
    # trajectories; p_ph = 0.1 and c1 = 1 about 0.3 per trajectory, so that trajectories
    # with two hits, and digital ones with a hit, weigh in P_L
    @pytest.mark.parametrize("k,theta_l,ratio,p_ph,c1,extra", [
        (3, 0.02, 8.0, 1e-2, 0.03, {}),
        (3, 0.004, 64.0, 1e-2, 0.03, {"timing_mode": "latency"}),
        (2, 0.03, 8.0, 1e-2, 0.03, {"p_m": 1e-3}),
        (5, 0.05, 4.0, 0.1, 1.0, {"p_m": 1e-3}),
    ])
    def test_matches_the_reference_sampler_in_law(self, k, theta_l, ratio, p_ph, c1, extra):
        cfg = _config(theta_l, k=k, p_ph=p_ph, c1=c1, threshold_ratio=ratio, **extra)
        reference = _reference_monte_carlo(cfg, 10 ** 6, 1)
        mc = smm.monte_carlo(cfg, 10 ** 7, 2)
        for name in ("p_l", "clocks", "p_switch"):
            se = math.hypot(getattr(reference, f"{name}_se"), getattr(mc, f"{name}_se"))
            gap = getattr(mc, f"{name}_hat") - getattr(reference, f"{name}_hat")
            assert abs(gap) <= 5.0 * se, name

    # the two n_rus = 17 gates of the benchmark's oracle workload: ~0.7 and ~3.5 million hits
    @pytest.mark.parametrize("k,seed", [(5, 1), (7, 2)])
    def test_figure_scale_matches_the_enumerator(self, k, seed):
        cfg = _config(0.75 * (math.pi / 8) / 2 ** 17, k=k, c1=smm.calibrate_c1(7, 1e-3),
                      threshold_ratio=2.0 ** 17)
        exact = smm.enumerate_error_rate(cfg)
        mc = smm.monte_carlo(cfg, 10 ** 11, seed)
        assert abs(mc.p_l_hat - exact) <= 4.0 * mc.p_l_se
        assert mc.p_l_se <= 0.05 * exact

    # a small table with large weights, so every cell of the uniforms is wide
    HIT_TABLE = ((0.6, 0.3, 0.1), (0.7, 0.2, 0.1), (0.5, 0.25, 0.25))

    @pytest.mark.parametrize("last", [0, 1, 2])
    def test_first_hit_and_pair_law_match_enumeration(self, last):
        rows = len(self.HIT_TABLE)
        tables = smm._mc_tables(np.ones(rows), np.tile([1.0, 1.5, 0.5], (rows, 1)),
                                np.array(self.HIT_TABLE))
        w = len(self.HIT_TABLE[0])

        def draw(u):
            return [int(v[0]) for v in smm._first_hits(tables, np.array([last]), np.array([u]))]

        # the law the lookups implement: measures of the uniforms' cells
        first = _cell_measures(lambda u: draw([u, 0.5, 0.5, 0.5])[0], last + 1)
        law = {}
        for j in range(last + 1):
            def at(u, part):
                return draw([(sum(first[:j]) + first[j] / 2), *u])[part]
            idle = _cell_measures(lambda u: int(at([u, 0.5, 0.5], 1) > 0), 2)[0]
            after_idle = _cell_measures(lambda u: at([0.0, 0.5, u], 2), w)
            gate = _cell_measures(lambda u: at([1.0 - 2.0 ** -53, u, 0.5], 1), w)
            canceller = _cell_measures(lambda u: at([1.0 - 2.0 ** -53, 0.5, u], 2), w)
            for g in range(w):
                for c in range(w):
                    pair = idle * after_idle[c] if g == 0 else (1.0 - idle) * gate[g] * canceller[c]
                    law[j, g, c] = first[j] * pair

        # brute force over every (gate, canceller) pattern of trials 0..last
        weight = {}
        pairs = itertools.product(range(w), repeat=2)
        for pattern in itertools.product(list(pairs), repeat=last + 1):
            hits = [i for i, (g, c) in enumerate(pattern) if (g, c) != (0, 0)]
            if hits:
                key = (hits[0], *pattern[hits[0]])
                p = math.prod(self.HIT_TABLE[i][g] * self.HIT_TABLE[i][c]
                              for i, (g, c) in enumerate(pattern))
                weight[key] = weight.get(key, 0.0) + p
        total = math.fsum(weight.values())
        for key in law:
            assert law[key] == pytest.approx(weight.get(key, 0.0) / total, rel=1e-12, abs=0.0), key

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 5), width=st.integers(2, 5))
    def test_branch_lookup_is_searchsorted_row_by_row(self, data, rows, width):
        weights = st.lists(st.floats(0.0, 1.0), min_size=width, max_size=width)
        table = np.cumsum([data.draw(weights) for _ in range(rows)], axis=1)
        trial = np.array(data.draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=20)))
        uniform = st.sampled_from(sorted({0.0, *table.ravel()})) | st.floats(0.0, 1.0)
        u = np.array(data.draw(st.lists(uniform, min_size=trial.size, max_size=trial.size)))
        expected = [np.searchsorted(table[t], v, side="right") for t, v in zip(trial, u)]
        assert smm._branch(table, trial, u).tolist() == expected

    @pytest.mark.parametrize("shots", [1, 2049, 16385, 131073, 200_000, 300_001])
    @pytest.mark.parametrize("timing_mode", ["pipelined", "latency"])
    @pytest.mark.parametrize("p_m", [0.0, 2e-9])
    def test_report_does_not_depend_on_the_worker_count(self, shots, timing_mode, p_m):
        # 1, 2 and 3 calls at once on worker threads: a call shares no state with another
        cfg = _config(0.75 * (math.pi / 8) / 2 ** 17, k=7, c1=0.04, threshold_ratio=2.0 ** 17,
                      timing_mode=timing_mode, p_m=p_m)
        reports = []
        for workers in (1, 2, 3):
            with ThreadPoolExecutor(workers) as pool:
                calls = [pool.submit(smm.monte_carlo, cfg, shots, 2 ** 64 - 5)
                         for _ in range(workers)]
                reports += [call.result() for call in calls]
        assert all(report == reports[0] for report in reports)

    @pytest.mark.parametrize("theta_l,n_rus", [(1e-90, 293), (5e-324, 1068)])
    def test_trial_counter_reaches_the_digital_branch_past_255_trials(
        self, monkeypatch, theta_l, n_rus
    ):
        # no sampled trajectory survives 256 trials, so every stop count is made 0:
        # each trajectory must count all n_rus trials and go digital
        cfg = smm.SmmConfig(theta_l=theta_l, theta_th=0.01,
                            tmr_params=tmr.TmrParams(k=7, p_ph=1e-3, pass_coeffs=(0.04,)))
        report = smm.effective_error_rate(cfg)
        assert report.n_rus == n_rus

        class NoStops(np.random.Generator):
            def binomial(self, n, p, size=None):
                return 0 if np.ndim(p) == 0 and p == 0.5 else super().binomial(n, p, size)

        monkeypatch.setattr(np.random, "Generator", NoStops)
        mc = smm.monte_carlo(cfg, 3000, 1)
        clocks = 0.0
        for row in report.trials:
            clocks += row.clocks
        clocks += smm._digital_clocks(cfg.timing_mode, report.n_syn)
        assert mc.p_switch_hat == 1.0
        assert mc.clocks_hat == pytest.approx(clocks, rel=1e-12)
        assert mc.clocks_se == pytest.approx(0.0, abs=1e-9 * clocks)

    def test_memory_does_not_grow_with_shots(self):
        # counts, the gate's tables and one block of hit trajectories: traced peak 0.02 MiB at
        # 2^17 shots, where one 2^17-trajectory chunk of live indices took 0.66 MiB, and
        # 0.6 MiB at 10^9 shots (~3.5 * 10^4 hits, so nine blocks)
        cfg = _config(0.75 * (math.pi / 8) / 2 ** 17, k=7, c1=0.04, threshold_ratio=2.0 ** 17)
        assert smm.effective_error_rate(cfg).n_rus == 17
        for shots, bound in ((2 ** 17, 0.1 * 2 ** 20), (10 ** 9, 2 ** 20)):
            smm.monte_carlo(cfg, shots, 1)  # leaves out one-time first-call allocations
            tracemalloc.start()
            try:
                smm.monte_carlo(cfg, shots, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, shots

    @pytest.mark.parametrize("shots,seed,name", [(1e6, 1, "shots"), (10, 1.5, "seed"),
                                                  ("10", 1, "shots"), (10, None, "seed")])
    def test_non_integer_shots_or_seed_is_named(self, shots, seed, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            smm.monte_carlo(_config(0.02, k=5), shots, seed)

    def test_numpy_integer_shots_and_seed_report_python_ints(self):
        mc = smm.monte_carlo(_config(0.02, k=5), np.int64(5), np.uint64(2 ** 64 - 1))
        assert (mc.shots, mc.seed) == (5, 2 ** 64 - 1)
        assert type(mc.shots) is int and type(mc.seed) is int
        assert mc == smm.monte_carlo(_config(0.02, k=5), 5, 2 ** 64 - 1)

    @pytest.mark.parametrize("cfg", [
        _config(0.0, theta_th=0.01, threshold_ratio=None),  # no trial: every trajectory digital
        _config(0.02, k=3, p_ph=1e-2, c1=0.03, p_m=1e-3),  # hits, digital ones among them
    ])
    def test_report_fields_are_python_numbers(self, cfg):
        # numpy scalars would make verify's gate a np.bool_, which json cannot write
        mc = smm.monte_carlo(cfg, np.int64(10 ** 6), np.uint64(3))
        for field in dataclasses.fields(mc):
            value = getattr(mc, field.name)
            assert type(value) is (int if field.name in ("shots", "seed") else float), field.name


def _cell_measures(outcome, size):
    """Lengths of the cells of [0, 1) where the non-decreasing ``outcome`` is 0, 1, ..., size - 1.

    Each cut is found by bisection down to adjacent doubles.
    """
    cuts = []
    for value in range(1, size):
        lo, hi = 0.0, 1.0
        while (mid := (lo + hi) / 2) not in (lo, hi):
            lo, hi = (lo, mid) if outcome(mid) >= value else (mid, hi)
        cuts.append(hi)
    bounds = [0.0, *cuts, 1.0]
    return [b - a for a, b in zip(bounds, bounds[1:])]


class TestV2Calibration:
    def test_calibrated_factor_hits_target(self):
        c1 = smm.calibrate_c1()
        vals = [
            smm.v2_rus_factor(1e-5 * 2 ** (j / 16.0), 7, 1e-3, c1) for j in range(16)
        ]
        assert sum(vals) / len(vals) == pytest.approx(1.6, abs=1e-6)

    def test_calibrated_c1_regression(self):
        assert smm.calibrate_c1(7, 1e-3) == pytest.approx(0.036746250646356234, rel=1e-12)

    @pytest.mark.parametrize("k", range(2, 16))
    def test_scalar_route_hits_target(self, k):
        # calibrate_c1 bisects on one table of the octave's rows; v2_rus_factor reads them
        # one angle at a time, as the final check does
        for p_ph in (1e-4, 3e-4, 1e-3, 3e-3):
            c1 = smm.calibrate_c1(k, p_ph)
            vals = [
                smm.v2_rus_factor(smm.CALIBRATION_ANCHOR * 2 ** (j / 16.0), k, p_ph, c1)
                for j in range(16)
            ]
            assert sum(vals) / len(vals) == pytest.approx(1.6, abs=1e-6), (k, p_ph)

    @pytest.mark.parametrize(
        "k,c1",
        [(5, 0.04484475855634082), (7, 0.0367462506463562), (9, 0.030222714024269726)],
    )
    def test_shipped_config_c1_pins(self, k, c1):
        # the c1 values the shipped configs calibrate, bit for bit
        assert smm.calibrate_c1(k, 1e-3) == c1

    def test_one_cache_entry_per_point(self):
        smm._calibrated_c1.cache_clear()
        c1 = smm.calibrate_c1()
        assert smm.calibrate_c1(7, 1e-3) == c1 == smm.calibrate_c1(k=7, p_ph=1e-3)
        info = smm._calibrated_c1.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)

    def test_rows_are_built_once(self, monkeypatch):
        # a cold calibration builds each octave trial row once; its final check rebuilds none
        calls = {"rows": 0, "rows_before_check": None}
        build, factor = tmr.output_model_for_logical, smm.v2_rus_factor

        def counted_build(*args):
            calls["rows"] += 1
            return build(*args)

        def counted_factor(*args):
            if calls["rows_before_check"] is None:
                calls["rows_before_check"] = calls["rows"]
            return factor(*args)

        monkeypatch.setattr(tmr, "output_model_for_logical", counted_build)
        monkeypatch.setattr(smm, "v2_rus_factor", counted_factor)
        smm._v2_trials.cache_clear()
        c1 = smm._calibrated_c1.__wrapped__(7, 1e-3)
        assert c1 == 0.0367462506463562
        rows = sum(smm.n_rus(theta_l, math.pi / 4) for theta_l in smm._OCTAVE)
        assert rows == 261
        assert calls == {"rows": rows, "rows_before_check": rows}

    def test_target_below_the_floor_raises(self, monkeypatch):
        # the factor at the least c1 tried, 1e-4, already exceeds a target this low
        monkeypatch.setattr(smm.mitigation, "V2_RUS_FACTOR", 1e-6)
        with pytest.raises(ValueError, match="below the injection-only floor"):
            smm._calibrated_c1.__wrapped__(7, 1e-3)

    def test_failed_scalar_check_raises(self, monkeypatch):
        monkeypatch.setattr(smm, "v2_rus_factor", lambda *args: 1.7)
        with pytest.raises(ValueError, match="octave-averaged v2 factor"):
            smm._calibrated_c1.__wrapped__(7, 1e-3)

    def test_nan_average_raises_on_a_cold_cache(self, monkeypatch):
        monkeypatch.setattr(smm, "v2_octave_average", lambda *args: math.nan)
        smm._calibrated_c1.cache_clear()
        with pytest.raises(ValueError, match="octave-averaged v2 factor nan, not 1.6"):
            smm.calibrate_c1()

    def test_calibrated_band_is_narrow(self):
        c1 = smm.calibrate_c1()
        vals = [
            smm.v2_rus_factor(10 ** (-6 + 2 * j / 24), 7, 1e-3, c1) for j in range(25)
        ]
        assert 1.4 < min(vals) and max(vals) < 1.9

    def test_injection_only_limit(self):
        # at c1 = 1 the first trial already loses to injection, so every trial
        # is one: P_L = sum_i 2^-i (2/15) p_ph = 2 (2/15) p_ph, the v1 gate rate
        alpha = smm.v2_rus_factor(0.3, 7, 1e-3, 1.0)
        assert alpha == pytest.approx((4.0 / 15.0) / 0.3, rel=1e-12)

    V2_THETAS = [(math.pi / 4) / 2 ** m for m in (0, 1, 3, 7, 12, 20)] + [1e-5, 3.3e-4, 0.2, 1.0]

    @pytest.mark.parametrize("k", [2, 3, 5, 7, 9, 15])
    def test_switch_minimises_the_factor(self, k):
        # every switch index s in 0..n against the greedy first-losing-trial rule
        for p_ph in (1e-4, 1e-3, 1e-2):
            injection = 2.0 / 15.0 * p_ph
            for c1 in (1e-3, 0.0367, 1.0):
                params = tmr.TmrParams(k=k, p_ph=p_ph, pass_coeffs=(c1,), j_max=1)
                for theta_l in self.V2_THETAS:
                    n = smm.n_rus(theta_l, math.pi / 4) if theta_l < math.pi / 4 else 0
                    costs, analog = [], 0.0
                    for s in range(n + 1):
                        costs.append(analog + 2.0 ** (1 - s) * injection)
                        if s < n:
                            model = tmr.output_model_for_logical(params, 2.0 ** s * theta_l)
                            # j_max = 1: the residual is the leading-order one
                            analog += 2.0 ** (-s) * libm_residual(model)
                    best = min(costs) / (theta_l * p_ph)
                    assert smm.v2_rus_factor(theta_l, k, p_ph, c1) == best, (p_ph, c1, theta_l)

    @pytest.mark.parametrize("k", [2, 3, 5, 7, 9, 15])
    def test_factor_non_decreasing_in_c1(self, k):
        # calibrate_c1's bisection relies on this
        for p_ph in (1e-4, 1e-3, 1e-2):
            for theta_l in self.V2_THETAS:
                vals = [smm.v2_rus_factor(theta_l, k, p_ph, c1) for c1 in (1e-3, 0.0367, 1.0)]
                assert vals == sorted(vals), (p_ph, theta_l)


class TestPinnedValues:
    """Exact values of the enumerator and the sampler; they must not drift."""

    def _fixed_ratio(self):
        return _config(0.02, k=5, c1=smm.calibrate_c1(7, 1e-3))

    def test_enumerated_error_rate(self):
        assert smm.enumerate_error_rate(self._fixed_ratio()) == 6.899648545234787e-06

    def test_monte_carlo_error_rate(self):
        assert smm.monte_carlo(self._fixed_ratio(), 200_000, 11).p_l_hat == 5.610296468334595e-06

    def test_monte_carlo_latency_clocks(self):
        cfg = _config(
            1e-5, k=7, c1=smm.calibrate_c1(7, 1e-3), threshold_ratio=2.0 ** 10,
            timing_mode="latency", p_m=2e-9,
        )
        assert smm.monte_carlo(cfg, 200_000, 11).clocks_hat == 5.185718383097345

    def test_monte_carlo_deep_rus(self):
        # n_rus = 17: pins the stop counts, the hit counts and the hit trajectories' draws
        cfg = _config(
            0.75 * (math.pi / 8) / 2 ** 17, k=7, c1=smm.calibrate_c1(7, 1e-3),
            threshold_ratio=2.0 ** 17, timing_mode="latency", p_m=2e-9,
        )
        mc = smm.monte_carlo(cfg, 300_001, 17)
        assert mc.p_l_hat == 1.0345102121538687e-12
        assert mc.clocks_hat == 4.48948506418692
        assert mc.p_switch_hat == 0.0


@pytest.mark.parametrize(
    "call,args,message",
    [
        (smm.monte_carlo, (_config(0.02), 0, 1), "shots must be >= 1"),
        # past binomial's int64 counts
        (smm.monte_carlo, (_config(0.02), 2 ** 63, 1),
         r"^shots must be >= 1 and < 2\^63, got 9223372036854775808$"),
        # a seed outside the Philox key word's range would alias one inside it
        (smm.monte_carlo, (_config(0.02), 10, 2 ** 64),
         r"^seed must lie in \[0, 2\^64\), got 18446744073709551616$"),
        (smm.monte_carlo, (_config(0.02), 10, -1), r"^seed must lie in \[0, 2\^64\), got -1$"),
        (smm.monte_carlo, (_config(0.02), True, 1), r"^shots must be an integer, got True$"),
        (smm.v2_rus_factor, (0.0, 7, 1e-3, 0.04), "theta_l and p_ph must be positive"),
        (smm.v2_rus_factor, (1e-5, 7, 0.0, 0.04), "theta_l and p_ph must be positive"),
        (smm.v2_rus_factor, (1e-5, 7, 1e-3, -1.0), "c1 non-negative"),
        # once returned 0.0 (theta_l = inf) or nan (c1 = nan or inf)
        (smm.v2_rus_factor, (math.inf, 7, 1e-3, 0.04), r"all finite; got theta_l = inf$"),
        (smm.v2_rus_factor, (math.nan, 7, 1e-3, 0.04), r"got theta_l = nan$"),
        (smm.v2_rus_factor, (1e-5, 7, math.inf, 0.04), r"got p_ph = inf$"),
        (smm.v2_rus_factor, (1e-5, 7, 1e-3, math.nan), r"got c1 = nan$"),
        (smm.v2_rus_factor, (1e-5, 7, 1e-3, math.inf), r"got c1 = inf$"),
        (smm.calibrate_c1, (7, 0.0), r"need 1e-05 \* p_ph > 0, got p_ph = 0.0"),
        (smm.calibrate_c1, (7, -1e-3), r"got p_ph = -0.001"),
        # theta_l * p_ph underflows to 0 in the v2 factor; no ZeroDivisionError leaks
        (smm.calibrate_c1, (7, 1e-320), r"got p_ph = 1e-320"),
    ],
    ids=["mc-shots", "mc-shots-2^63", "mc-seed-2^64", "mc-seed-negative", "mc-shots-bool",
         "v2-theta_l", "v2-p_ph",
         "v2-c1", "v2-theta_l-inf", "v2-theta_l-nan", "v2-p_ph-inf",
         "v2-c1-nan", "v2-c1-inf", "calibrate-zero", "calibrate-negative", "calibrate-subnormal"],
)
def test_validation_names_the_argument(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)
