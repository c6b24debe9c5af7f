import math

import numpy as np
import pytest

from starsmm import pcec, tmr, zchan


def _model(k=3, p_ph=1e-3, theta=0.1, c1=1.0):
    return tmr.branch_weights(tmr.TmrParams(k=k, p_ph=p_ph, pass_coeffs=(c1,)), theta)


class TestNoisyChannel:
    def test_noiseless_model_is_pure_rotation(self):
        model = _model(p_ph=0.0)
        chan = pcec.build_noisy_channel(model)
        assert len(chan.branches) == 1
        assert chan.branches[0][1] == pytest.approx(model.theta_l)

    def test_k3_two_branch_structure(self):
        model = _model()
        chan = pcec.build_noisy_channel(model)
        assert len(chan.branches) == 2
        weights = dict((round(phi, 6), w) for w, phi in chan.branches)
        assert weights[round(model.theta_l, 6)] == pytest.approx(1 - model.branch_qbars[1])
        assert weights[round(-0.1, 6)] == pytest.approx(model.branch_qbars[1])

    def test_density_matrix_action_on_plus(self):
        # hand-computed 2x2 result: off-diagonal picks up sum_j q_j e^{2i theta_j}
        model = _model()
        out = zchan.apply(pcec.build_noisy_channel(model), zchan.plus_state())
        expected_01 = 0.5 * sum(
            q * complex(math.cos(2 * t), math.sin(2 * t))
            for q, t in zip(model.branch_qbars, model.branch_thetas)
        )
        assert out.matrix[0, 1] == pytest.approx(expected_01, abs=1e-15)
        assert out.matrix[0, 0] == pytest.approx(0.5, abs=1e-15)


class TestCanceller:
    def test_noiseless_model_gives_identity(self):
        chan = pcec.build_canceller(_model(p_ph=0.0))
        assert chan.branches == ((1.0, 0.0),)

    def test_single_error_model_structure(self):
        model = _model()
        chan = pcec.build_canceller(model)
        qbar1 = model.branch_qbars[1]
        delta1 = model.branch_thetas[1] - model.theta_l
        assert len(chan.branches) == 2
        by_angle = {round(phi, 9): w for w, phi in chan.branches}
        assert by_angle[round(0.0, 9)] == pytest.approx(1 - qbar1)
        assert by_angle[round(-delta1, 9)] == pytest.approx(qbar1)

    def test_out_of_regime_raises(self):
        # crank the pass coefficient until the error branches dominate
        params = tmr.TmrParams(k=2, p_ph=0.1, pass_coeffs=(1e4,))
        model = tmr.branch_weights(params, 0.7)
        assert model.error_weight() >= 0.5
        with pytest.raises(pcec.ModelRegimeError):
            pcec.build_canceller(model)


class TestResidualRate:
    def test_noiseless_is_zero(self):
        assert pcec.residual_rate(_model(p_ph=0.0)) == 0.0

    def test_leading_order_scaling(self):
        # residual / (theta_l^{2(1-1/k)} p_ph) approaches a constant; use a
        # small p_ph so the grid sits far above the theta_l >> p_ph^{k/2}
        # regime boundary where order-2 branches would take over
        k, p_ph = 5, 1e-5
        params = tmr.TmrParams(k=k, p_ph=p_ph)
        ratios = []
        for theta_l in np.geomspace(3e-8, 1e-6, 7):
            model = tmr.output_model_for_logical(params, theta_l)
            ratios.append(
                pcec.residual_rate(model) / (theta_l ** (2 * (1 - 1 / k)) * p_ph)
            )
        assert max(ratios) / min(ratios) < 1.02
        # and the full-sum rate matches the leading-order rate in-regime
        model = tmr.output_model_for_logical(params, 1e-6)
        assert pcec.residual_rate(model) == pytest.approx(
            pcec.residual_rate(model, higher_orders=False), rel=1e-2
        )

    @pytest.mark.parametrize("k", [3, 4, 5, 7])
    def test_oracle_against_exact_channel(self, k):
        for theta in (0.02, 0.1, 0.3, 0.6):
            for p_ph in (1e-4, 1e-3, 1e-2):
                model = tmr.branch_weights(tmr.TmrParams(k=k, p_ph=p_ph), theta)
                exact = zchan.twirled_z_error(pcec.composed_error_channel(model), 0.0)
                bound = 10.0 * model.error_weight() ** 2
                assert abs(pcec.residual_rate(model) - exact) <= max(bound, 1e-16)

    def test_even_in_theta_l_by_mirror(self):
        # mirrored model: negate branch angles; the rate is identical
        model = _model(k=5, theta=0.2)
        mirrored = tmr.TmrOutputModel(
            params=model.params,
            theta_phys=-model.theta_phys,
            theta_l=-model.theta_l,
            p_ideal=model.p_ideal,
            branch_thetas=tuple(-t for t in model.branch_thetas),
            branch_qbars=model.branch_qbars,
        )
        assert pcec.residual_rate(mirrored) == pytest.approx(
            pcec.residual_rate(model), rel=1e-14
        )

    def test_upper_bound(self):
        for theta in (0.05, 0.3, 0.7):
            model = _model(k=7, theta=theta, p_ph=1e-2)
            assert pcec.residual_rate(model) <= 2 * model.error_weight()


class TestChannelSet:
    def test_composed_channel_is_pauli_up_to_second_order(self):
        # the surviving coherent part of canceller . noisy must be O(Q^2)
        for k in (3, 5, 7):
            for theta in (0.05, 0.2, 0.5):
                model = tmr.branch_weights(tmr.TmrParams(k=k, p_ph=1e-3), theta)
                composed = pcec.composed_error_channel(model)
                dev = zchan.worst_case_vs_pauli_model(composed, 0.0)
                assert dev <= 10.0 * model.error_weight() ** 2

    def test_leading_residual_matches_full_for_jmax1(self):
        params = tmr.TmrParams(k=7, p_ph=1e-3, j_max=1)
        model = tmr.branch_weights(params, 0.3)
        assert pcec.residual_rate(model, higher_orders=False) == pytest.approx(
            pcec.residual_rate(model), rel=1e-14
        )

    @pytest.mark.parametrize("k", [2, 5, 8])
    def test_residual_rates_match_scalar_forms(self, k):
        params = tmr.TmrParams(k=k, p_ph=1e-2)
        theta_l = np.geomspace(1e-9, math.pi / 8, 13)
        _, thetas, qbars = tmr.branch_table(params, theta_l)
        full = pcec.residual_rates(thetas, qbars)
        lead = pcec.residual_rates(thetas, qbars, higher_orders=False)
        for x, r_full, r_lead in zip(theta_l, full, lead):
            model = tmr.output_model_for_logical(params, float(x))
            assert r_full == pytest.approx(pcec.residual_rate(model), rel=1e-13, abs=0.0)
            assert r_lead == pytest.approx(pcec.residual_rate(model, higher_orders=False), rel=1e-13, abs=0.0)
