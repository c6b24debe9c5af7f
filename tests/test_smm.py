import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from starsmm import pcec, smm, tmr


def _config(theta_l, k=5, p_ph=1e-3, c1=1.0, **kwargs):
    params = tmr.TmrParams(k=k, p_ph=p_ph, pass_coeffs=(c1,))
    kwargs.setdefault("threshold_ratio", 8.0)
    return smm.SmmConfig(theta_l=theta_l, tmr_params=params, **kwargs)


def _reference_monte_carlo(config, shots, seed):
    """The full-width sampler: every trial advances every trajectory, masked by ``alive``.

    Test oracle for :func:`smm.monte_carlo`.  It draws every uniform of every
    trial with ``Generator.random`` on the (seed, chunk) Philox stream and
    tests them as doubles.  ``monte_carlo`` reads the same stream positions
    as raw words, tests them as integers, and computes only the live
    trajectories' words once few are left; the two must agree bit for bit.
    """
    if config.theta_l == 0.0:
        return smm.McReport(shots, seed, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
    report = smm.effective_error_rate(config)
    p_digital_flip = report.p_digital
    cums, deltas = [], []
    for row in report.trials:
        edges = np.cumsum(row.model.branch_qbars)
        edges[-1] = 1.0
        cums.append(edges)
        deltas.append(np.array(row.model.branch_thetas) - row.theta_rus)
    t_digital = smm._digital_clocks(config.timing_mode, report.n_syn)

    sum_x = sum_x2 = sum_t = sum_t2 = 0.0
    n_digital = 0
    done = 0
    chunk_index = 0
    while done < shots:
        size = min(smm._MC_CHUNK, shots - done)
        key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk_index], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        err = np.zeros(size)
        clocks = np.zeros(size)
        alive = np.ones(size, dtype=bool)
        success_err = np.zeros(size)
        succeeded = np.zeros(size, dtype=bool)
        for row, edges, dl in zip(report.trials, cums, deltas):
            u_coin = rng.random(size)
            u_gate = rng.random(size)
            u_canc = rng.random(size)
            j_gate = np.searchsorted(edges, u_gate, side="right")
            j_canc = np.searchsorted(edges, u_canc, side="right")
            step = dl[j_gate] - dl[j_canc]
            coin = u_coin < 0.5
            err = np.where(alive, err + np.where(coin, step, -step), err)
            clocks = np.where(alive, clocks + row.clocks, clocks)
            newly = alive & coin
            success_err = np.where(newly, err, success_err)
            succeeded |= newly
            alive &= ~coin
        clocks = np.where(alive, clocks + t_digital, clocks)
        s2 = np.sin(np.where(succeeded, success_err, err)) ** 2
        x = np.where(
            succeeded,
            s2,
            (1.0 - p_digital_flip) * s2 + p_digital_flip * (1.0 - s2),
        )
        sum_x += float(x.sum())
        sum_x2 += float((x * x).sum())
        sum_t += float(clocks.sum())
        sum_t2 += float((clocks * clocks).sum())
        n_digital += int(alive.sum())
        done += size
        chunk_index += 1

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
        with pytest.raises(ValueError):
            smm.n_rus(0.02, 0.01)

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
        rep = smm.effective_error_rate(_config(0.0, theta_th=0.01, threshold_ratio=None))
        assert rep.p_l == 0.0 and rep.expected_clocks == 0.0

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
            assert row.residual == pytest.approx(pcec.residual_rate(model), rel=1e-13)
        expected_analog = sum(2.0 ** -r.index * r.residual for r in rep.trials)
        assert rep.p_analog == pytest.approx(expected_analog, rel=1e-13)

    def test_trial_rows_carry_their_tmr_model(self):
        cfg = _config(1e-3, k=5, threshold_ratio=16.0, timing_mode="latency")
        rep = smm.effective_error_rate(cfg)
        for row in rep.trials:
            assert row.model == tmr.output_model_for_logical(cfg.tmr_params, row.theta_rus)
            assert row.clocks == 1 / tmr.p_ideal(row.model.theta_phys, cfg.tmr_params.k) + 1.0

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


class TestErrorRates:
    """The array form against a loop over the scalar reference path."""

    # numpy's tan/arctan/pow differ from libm in the last bit; the rows
    # checked so far differ by at most ~28 eps
    REL = 1e-13

    def _compare(self, params, theta_l, theta_th, exact=False, **kwargs):
        rates = smm.error_rates(params, theta_l, theta_th, **kwargs)
        theta_th = np.broadcast_to(theta_th, np.shape(theta_l))
        for r, (x, th) in enumerate(zip(theta_l, theta_th)):
            config = smm.SmmConfig(
                theta_l=float(x), tmr_params=params, theta_th=float(th), **kwargs
            )
            rep = smm.effective_error_rate(config)
            got = (rates.p_l[r], rates.alpha_rus[r], rates.expected_clocks[r])
            want = (rep.p_l, rep.alpha_rus, rep.expected_clocks)
            if exact:
                assert got == want
            else:
                assert got == pytest.approx(want, rel=self.REL, abs=0.0)
            assert rates.out_of_regime[r] == rep.out_of_regime
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
        if p_m == 0.0:
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
        q_sum = sum(row.model.error_weight() for row in rep.trials)
        assert abs(rep.p_l - smm.enumerate_error_rate(lead)) <= 10.0 * q_sum ** 2

    @pytest.mark.parametrize("timing_mode", ["pipelined", "latency"])
    def test_zero_angle_is_the_identity(self, timing_mode):
        cfg = _config(0.0, theta_th=0.01, threshold_ratio=None, timing_mode=timing_mode)
        exact = smm.enumerate_error_rate(cfg)
        assert exact == 0.0 and math.copysign(1.0, exact) == 1.0


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
        mc = smm.monte_carlo(
            _config(0.0, theta_th=0.01, threshold_ratio=None), 100, seed=1
        )
        assert mc.p_l_hat == 0.0 and mc.p_switch_hat == 1.0

    # n_rus = 17 at seed 2^64 - 1: two full chunks that switch from the stream to the
    # counter kernel mid-chunk and a short one above _KERNEL_LIVE (2 * 2^17 + 2049),
    # one short chunk above it (2049), and one computed by the kernel from trial 0 (2048)
    @example(k=7, j_max=None, c1=0.5, p_ph=1e-2, p_m=2e-9, higher=True,
             timing_mode="pipelined", log2_ratio=17, scale=0.75, sign=1.0,
             shots=2 * 2 ** 17 + 2049, seed=2 ** 64 - 1)
    @example(k=7, j_max=None, c1=0.5, p_ph=1e-2, p_m=2e-9, higher=True,
             timing_mode="latency", log2_ratio=17, scale=0.75, sign=1.0,
             shots=2 * 2 ** 17 + 2049, seed=2 ** 64 - 1)
    @example(k=7, j_max=None, c1=0.5, p_ph=1e-2, p_m=2e-9, higher=True,
             timing_mode="pipelined", log2_ratio=17, scale=0.75, sign=1.0,
             shots=2049, seed=2 ** 64 - 1)
    @example(k=7, j_max=None, c1=0.5, p_ph=1e-2, p_m=2e-9, higher=True,
             timing_mode="latency", log2_ratio=17, scale=0.75, sign=1.0,
             shots=2049, seed=2 ** 64 - 1)
    @example(k=7, j_max=None, c1=0.5, p_ph=1e-2, p_m=2e-9, higher=True,
             timing_mode="pipelined", log2_ratio=17, scale=0.75, sign=1.0,
             shots=2048, seed=2 ** 64 - 1)
    @example(k=7, j_max=None, c1=0.5, p_ph=1e-2, p_m=2e-9, higher=True,
             timing_mode="latency", log2_ratio=17, scale=0.75, sign=1.0,
             shots=2048, seed=2 ** 64 - 1)
    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(2, 11),
        j_max=st.sampled_from([None, 1]),
        c1=st.floats(0.01, 1.0),
        p_ph=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2]),
        p_m=st.sampled_from([0.0, 2e-9]),
        higher=st.booleans(),
        timing_mode=st.sampled_from(["pipelined", "latency"]),
        log2_ratio=st.one_of(st.integers(0, 18), st.floats(0.0, 18.0)),
        scale=st.floats(0.01, 1.0),
        sign=st.sampled_from([1.0, -1.0]),
        shots=st.one_of(st.sampled_from([1, 3, 131071, 131073]), st.integers(1, 5000)),
        seed=st.integers(0, 2 ** 64 - 1),
    )
    def test_matches_full_width_sampler(
        self, k, j_max, c1, p_ph, p_m, higher, timing_mode, log2_ratio, scale, sign, shots, seed
    ):
        # ratio 2^0 runs no trial; 2^18 runs 18, so most chunks empty before their last trial
        ratio = 2.0 ** log2_ratio
        config = smm.SmmConfig(
            theta_l=sign * scale * smm.MAX_THRESHOLD / ratio,
            tmr_params=tmr.TmrParams(k=k, p_ph=p_ph, pass_coeffs=(c1,), j_max=j_max),
            threshold_ratio=ratio, p_m=p_m, include_higher_orders=higher,
            timing_mode=timing_mode,
        )
        assert smm.monte_carlo(config, shots, seed) == _reference_monte_carlo(config, shots, seed)

    @pytest.mark.parametrize("k0", [0, 2 ** 63, 2 ** 64 - 1])
    @pytest.mark.parametrize("k1", [0, 7, 2 ** 40])
    def test_philox_words_match_the_stream(self, k0, k1):
        deep = 3 * 17 * 2 ** 17  # the draws of 17 trials of a full chunk
        pos = np.array([[0, 1, 2, 3, 5, 6, 7, 4097], [deep - 1, deep, deep + 1, deep + 2,
                                                      deep + 3, deep + 5, deep + 6, deep + 7]])
        key = np.array([k0, k1], dtype=np.uint64)
        raw = np.random.Philox(key=key).random_raw(deep + 8)
        assert np.array_equal(smm._philox_words((k0, k1), pos), raw[pos])
        # the uniforms the sampler's integer tests stand for
        uniforms = np.random.Generator(np.random.Philox(key=key)).random(8)
        assert np.array_equal(uniforms, (raw[:8] >> np.uint64(11)) * 2.0 ** -53)

    @settings(max_examples=200, deadline=None)
    @given(
        edge=st.one_of(st.sampled_from([0.0, 5e-324, 1.0 - 2.0 ** -53, 1.0]), st.floats(0.0, 1.0)),
        word=st.integers(0, 2 ** 64 - 1),
    )
    def test_branch_floor_is_the_uniform_test(self, edge, word):
        floor = smm._branch_floor(edge)
        for r in {word, floor - 1, floor}:
            if 0 <= r < 2 ** 64:
                assert (r >= floor) == ((r >> 11) * 2.0 ** -53 >= edge)


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
        # v2_rus_factor is the independent route; calibrate_c1 bisects on cached geometry
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

    def test_target_below_the_floor_raises(self, monkeypatch):
        # the factor at the least c1 tried, 1e-4, already exceeds a target this low
        monkeypatch.setattr(smm.mitigation, "V2_RUS_FACTOR", 1e-6)
        with pytest.raises(ValueError, match="below the injection-only floor"):
            smm.calibrate_c1.__wrapped__(7, 1e-3)

    def test_failed_scalar_check_raises(self, monkeypatch):
        monkeypatch.setattr(smm, "v2_rus_factor", lambda *args: 1.7)
        with pytest.raises(ValueError, match="octave-averaged v2 factor"):
            smm.calibrate_c1.__wrapped__(7, 1e-3)

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
                            analog += 2.0 ** (-s) * pcec.residual_rate(model, higher_orders=False)
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
        assert smm.enumerate_error_rate(self._fixed_ratio()) == 6.899648545242998e-06

    def test_monte_carlo_error_rate(self):
        assert smm.monte_carlo(self._fixed_ratio(), 200_000, 11).p_l_hat == 7.177645778433653e-06

    def test_monte_carlo_latency_clocks(self):
        cfg = _config(
            1e-5, k=7, c1=smm.calibrate_c1(7, 1e-3), threshold_ratio=2.0 ** 10,
            timing_mode="latency", p_m=2e-9,
        )
        assert smm.monte_carlo(cfg, 200_000, 11).clocks_hat == 5.190834508834256

    def test_monte_carlo_deep_rus(self):
        # n_rus = 17 over three chunks, the last one short: pins the draw layout
        cfg = _config(
            0.75 * (math.pi / 8) / 2 ** 17, k=7, c1=smm.calibrate_c1(7, 1e-3),
            threshold_ratio=2.0 ** 17, timing_mode="latency", p_m=2e-9,
        )
        mc = smm.monte_carlo(cfg, 300_001, 17)
        assert mc.p_l_hat == 3.7320716607960225e-10
        assert mc.clocks_hat == 4.490983883105016
        assert mc.p_switch_hat == 1.6666611111296295e-05


@pytest.mark.parametrize(
    "call,args,message",
    [
        (smm.monte_carlo, (_config(0.02), 0, 1), "shots must be >= 1"),
        (smm.v2_rus_factor, (0.0, 7, 1e-3, 0.04), "theta_l and p_ph must be positive"),
        (smm.v2_rus_factor, (1e-5, 7, 0.0, 0.04), "theta_l and p_ph must be positive"),
        (smm.v2_rus_factor, (1e-5, 7, 1e-3, -1.0), "c1 non-negative"),
        (smm.calibrate_c1, (7, 0.0), r"need 1e-05 \* p_ph > 0, got p_ph = 0.0"),
        (smm.calibrate_c1, (7, -1e-3), r"got p_ph = -0.001"),
        # theta_l * p_ph underflows to 0 in the v2 factor; no ZeroDivisionError leaks
        (smm.calibrate_c1, (7, 1e-320), r"got p_ph = 1e-320"),
    ],
    ids=["mc-shots", "v2-theta_l", "v2-p_ph", "v2-c1", "calibrate-zero", "calibrate-negative",
         "calibrate-subnormal"],
)
def test_validation_names_the_argument(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)
