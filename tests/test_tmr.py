import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from starsmm import tmr
from starsmm.verify import rotation_branch_table


def leading_error_angle(theta: float, k: int) -> float:
    """The j = 1 branch angle from its dedicated closed form.

    -arcsin( sin^{k-2} / sqrt(sin^{2k-4} + cos^{2k-4}) ); kept separate from
    the branch angles of :func:`tmr.branch_weights` as a cross-check identity.
    """
    s, c = math.sin(theta), math.cos(theta)
    return -math.asin(s ** (k - 2) / math.sqrt(s ** (2 * k - 4) + c ** (2 * k - 4)))


def _asin_branch_angle(theta: float, k: int, j: int) -> float:
    """theta_j from the branch amplitudes: arcsin(|u_{k-j}| / sqrt(|u_j|^2 + |u_{k-j}|^2)).

    For j <= k/2 and theta in (0, pi/4], |u_{k-j}| <= |u_j|, so the arcsin
    argument stays at most 1/sqrt(2) and the oracle is well conditioned.
    """
    s, c = math.sin(theta), math.cos(theta)
    ua = s ** j * c ** (k - j)
    ub = s ** (k - j) * c ** j
    mag = math.asin(ub / math.hypot(ua, ub))
    return mag if j % 2 == 0 else -mag


def _gate(theta: float, k: int, j_max: int | None = None) -> tmr.TmrOutputModel:
    """branch_weights at physical angle theta, with every order up to j_max."""
    return tmr.branch_weights(tmr.TmrParams(k=k, p_ph=1e-3, j_max=j_max), theta)


class TestPIdeal:
    def test_zero_angle(self):
        # theta = 0 is refused; at theta = 1e-200, sin^2k underflows and cos is 1
        for k in (2, 5, 9):
            assert _gate(1e-200, k).p_ideal == 1.0

    @pytest.mark.parametrize("k", [2, 3, 5, 7, 9])
    def test_quarter_pi(self, k):
        assert _gate(math.pi / 4, k).p_ideal == pytest.approx(2.0 ** (1 - k), rel=1e-14)

    def test_point_value(self):
        # oracle: 1 - 3 sin^2 cos^2 for k = 3
        s, c = math.sin(0.1), math.cos(0.1)
        assert _gate(0.1, 3).p_ideal == pytest.approx(1 - 3 * s * s * c * c, rel=1e-14)
        assert _gate(0.1, 3).p_ideal == pytest.approx(0.9703978727510822, rel=1e-13)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match=r"k must lie in \[2, 1024\], got 1"):
            tmr.TmrParams(k=1, p_ph=1e-3)


class TestLogicalAngle:
    @pytest.mark.parametrize("k", [2, 3, 5, 7, 9])
    def test_quarter_pi_fixed_point(self, k):
        assert _gate(math.pi / 4, k).theta_l == pytest.approx(math.pi / 4, rel=1e-14)

    def test_point_value(self):
        assert _gate(0.1, 3).theta_l == pytest.approx(1.0100734581612856e-3, rel=1e-13)

    @pytest.mark.parametrize("k", [2, 3, 5, 7, 9])
    def test_arctan_power_identity(self, k):
        # independent closed form: theta_L = arctan(tan^k theta)
        for theta in np.linspace(0.01, math.pi / 4, 30):
            expected = math.atan(math.tan(theta) ** k)
            assert _gate(theta, k).theta_l == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("k", [3, 5, 9])
    def test_strictly_monotone(self, k):
        grid = np.linspace(0.0, math.pi / 4, 200)[1:]
        vals = [_gate(t, k).theta_l for t in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_small_angle_power_law(self):
        for k in (3, 5):
            theta = 1e-3
            assert _gate(theta, k).theta_l == pytest.approx(theta ** k, rel=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            _gate(-0.1, 3)
        with pytest.raises(ValueError):
            _gate(1.0, 3)


class TestPhysicalAngleFor:
    def test_endpoints(self):
        assert tmr.physical_angle_for(0.0, 5) == 0.0
        assert tmr.physical_angle_for(math.pi / 4, 5) == pytest.approx(math.pi / 4, abs=1e-15)

    @pytest.mark.parametrize("k", [2, 3, 5, 7, 9])
    def test_round_trip(self, k):
        params = tmr.TmrParams(k=k, p_ph=1e-3)
        for x in np.geomspace(1e-8, 0.2, 25):
            model = tmr.output_model_for_logical(params, x)
            assert model.theta_phys == tmr.physical_angle_for(x, k)
            assert model.theta_l == pytest.approx(x, abs=1e-12, rel=1e-10)

    @given(
        x=st.floats(min_value=1e-12, max_value=math.pi / 4),
        k=st.integers(min_value=2, max_value=15),
    )
    def test_closed_form_inverts_asin_map(self, x, k):
        model = tmr.output_model_for_logical(tmr.TmrParams(k=k, p_ph=1e-3), x)
        assert model.theta_l == pytest.approx(x, rel=1e-12)


class TestBranchAngles:
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_j0_is_logical_angle(self, k):
        # theta_0 is the asin form; the j = 0 case of (-1)^j arctan(tan^(k-2j)) agrees
        for theta in (0.05, 0.2, 0.7):
            model = _gate(theta, k)
            assert model.branch_thetas[0] == model.theta_l
            assert math.atan(math.tan(theta) ** k) == pytest.approx(model.theta_l, rel=1e-14)

    def test_k3_leading_branch_is_minus_theta(self):
        assert _gate(0.1, 3).branch_thetas[1] == pytest.approx(-0.1, rel=1e-14)

    @pytest.mark.parametrize("k", [3, 4, 5, 7, 9])
    def test_j1_matches_dedicated_closed_form(self, k):
        for theta in np.linspace(0.02, math.pi / 4, 20):
            assert _gate(theta, k).branch_thetas[1] == pytest.approx(
                leading_error_angle(theta, k), abs=1e-12
            )

    @pytest.mark.parametrize("k", [4, 5, 7])
    def test_sign_alternation(self, k):
        for theta in (0.05, 0.3):
            for j, val in enumerate(_gate(theta, k, j_max=k // 2).branch_thetas):
                assert math.copysign(1.0, val) == (-1.0) ** j

    def test_rejects_out_of_range_j(self):
        # branches run over j = 0..j_max, and j and k - j are one pattern pair
        for k in range(2, 16):
            assert tmr.TmrParams(k=k, p_ph=1e-3, j_max=k // 2).j_max == k // 2
            for j_max in (0, k // 2 + 1):
                message = rf"j_max must lie in \[1, k // 2\] = \[1, {k // 2}\], got {j_max}"
                with pytest.raises(ValueError, match=message):
                    tmr.TmrParams(k=k, p_ph=1e-3, j_max=j_max)

    @given(
        theta=st.floats(min_value=1e-6, max_value=math.pi / 4),
        k=st.integers(min_value=2, max_value=15),
        data=st.data(),
    )
    def test_closed_form_matches_asin_form(self, theta, k, data):
        j = data.draw(st.integers(min_value=0, max_value=k // 2))
        assert _gate(theta, k).branch_thetas[j] == pytest.approx(
            _asin_branch_angle(theta, k, j), rel=0.0, abs=1e-12
        )

    def test_complement_orders_are_refused(self):
        # order k is the target pair again, and order k - j is order j's pair
        for j_max in (5, 9):
            with pytest.raises(ValueError, match=r"j_max must lie in \[1, k // 2\]"):
                tmr.TmrParams(k=9, p_ph=1e-3, j_max=j_max)
        # every kept power k - 2j is >= 1, so tan^(k-2j) of a tiny angle only shrinks
        assert all(abs(x) <= 1e-40 for x in _gate(1e-40, 9).branch_thetas[1:])


class TestBranchWeights:
    def test_noiseless_concentrates_on_target(self):
        model = tmr.branch_weights(tmr.TmrParams(k=5, p_ph=0.0), 0.1)
        assert model.branch_qbars[0] == 1.0
        assert all(q == 0.0 for q in model.branch_qbars[1:])

    def test_k3_point_values(self):
        model = tmr.branch_weights(tmr.TmrParams(k=3, p_ph=1e-3), 0.1)
        s, c = math.sin(0.1), math.cos(0.1)
        q1_sample = 3 * (s ** 2 * c ** 4 + s ** 4 * c ** 2)
        assert q1_sample == pytest.approx(0.0296021272489181, rel=1e-13)
        q0 = model.p_ideal
        expected_qbar1 = q1_sample * 1e-3 / (q0 + q1_sample * 1e-3)
        assert model.branch_qbars[1] == pytest.approx(expected_qbar1, rel=1e-13)
        assert model.branch_qbars[1] == pytest.approx(3.0504213880207288e-05, rel=1e-12)

    def test_weights_normalized(self):
        for k in (3, 4, 7):
            model = tmr.branch_weights(tmr.TmrParams(k=k, p_ph=1e-3), 0.3)
            assert sum(model.branch_qbars) == pytest.approx(1.0, abs=1e-12)

    def test_qbar1_small_angle_constant(self):
        # qbar_1 / (theta_l^{2/k} p_ph) -> k c_1 as theta_l -> 0
        k, p_ph = 5, 1e-3
        params = tmr.TmrParams(k=k, p_ph=p_ph)
        ratios = []
        for theta_l in np.geomspace(1e-8, 1e-4, 9):
            model = tmr.output_model_for_logical(params, theta_l)
            ratios.append(model.branch_qbars[1] / (theta_l ** (2 / k) * p_ph))
        assert ratios[0] == pytest.approx(k, rel=1e-3)
        assert max(ratios) / min(ratios) < 1.01

    @pytest.mark.parametrize("k", [4, 5, 7])
    def test_qbar_scaling_exponents(self, k):
        # log-log slope of qbar_j vs theta is 2*min(j, k-j), within 0.05
        params = tmr.TmrParams(k=k, p_ph=1e-3)
        thetas = np.geomspace(3e-4, 3e-3, 7)
        for j in range(1, k // 2 + 1):
            logs = [
                math.log(tmr.branch_weights(params, t).branch_qbars[j]) for t in thetas
            ]
            slope = np.polyfit(np.log(thetas), logs, 1)[0]
            assert slope == pytest.approx(2 * min(j, k - j), abs=0.05)

    def test_even_k_middle_branch_halved(self):
        # at j = k/2 the branch pair is self-conjugate; its sample weight
        # C(k, k/2) * 2|u|^2 is halved to avoid double counting
        k, theta, p_ph = 4, 0.2, 1e-3
        model = tmr.branch_weights(tmr.TmrParams(k=k, p_ph=p_ph), theta)
        s, c = math.sin(theta), math.cos(theta)
        u2_sq = (s ** 2 * c ** 2) ** 2
        raw_q2 = math.comb(4, 2) * 2 * u2_sq * 0.5 * p_ph ** 2
        # the unnormalized ratio q2/q0 is normalization-free
        assert model.branch_qbars[2] / model.branch_qbars[0] == pytest.approx(
            raw_q2 / model.p_ideal, rel=1e-12
        )


class TestPairWeight:
    @staticmethod
    def _inline_qbars(params, theta):
        # the weights inline from one sin and cos, in branch_weights' order of operations
        k, s, c = params.k, math.sin(theta), math.cos(theta)
        q = [s ** (2 * k) + c ** (2 * k)]
        for j in range(1, params.j_max + 1):
            sample = math.comb(k, j) * ((s ** j * c ** (k - j)) ** 2 + (s ** (k - j) * c ** j) ** 2)
            if 2 * j == k:
                sample *= 0.5
            q.append(sample * params.pass_coeffs[j - 1] * params.p_ph ** j)
        total = sum(q)
        return tuple(w / total for w in q)

    @pytest.mark.parametrize(
        "k,theta", [(2, 0.3), (3, 0.1), (4, 0.2), (6, 0.05), (7, 1e-3), (8, 0.7), (15, 0.4)]
    )
    def test_branch_weights_bits_unchanged(self, k, theta):
        # even k reaches the halved self-conjugate pair at j = k/2
        for p_ph, coeffs in ((1e-3, ()), (3e-4, (0.0367, 2.5, 0.1, 7.0))):
            params = tmr.TmrParams(k=k, p_ph=p_ph, pass_coeffs=coeffs)
            model = tmr.branch_weights(params, theta)
            assert model.branch_qbars == self._inline_qbars(params, theta)

    def test_halved_at_half_k(self):
        theta = 0.2
        s, c = math.sin(theta), math.cos(theta)
        assert tmr.pair_weight(theta, 4, 2) == 0.5 * (6 * 2 * (s ** 2 * c ** 2) ** 2)
        assert tmr.pair_weight(theta, 5, 2) == 10 * (
            (s ** 2 * c ** 3) ** 2 + (s ** 3 * c ** 2) ** 2
        )


class TestSupplyTime:
    """One accepted resource state takes 1 / p_ideal attempts of one clock each."""

    def test_small_angle_floor(self):
        assert 1 / _gate(1e-6, 5).p_ideal == pytest.approx(1.0, rel=1e-9)

    def test_quarter_pi_k7(self):
        assert 1 / _gate(math.pi / 4, 7).p_ideal == pytest.approx(64.0, rel=1e-12)

    def test_reference_operating_point(self):
        # one accepted state within a few clocks at theta_l = 1e-3, k = 5
        model = tmr.output_model_for_logical(tmr.TmrParams(k=5, p_ph=1e-3), 1e-3)
        assert 1.0 <= 1 / model.p_ideal <= 3.0


class TestParams:
    def test_j_max_default(self):
        assert tmr.TmrParams(k=7, p_ph=1e-3).j_max == 3
        assert tmr.TmrParams(k=4, p_ph=1e-3).j_max == 2

    def test_pass_coeff_padding(self):
        params = tmr.TmrParams(k=7, p_ph=1e-3, pass_coeffs=(0.5,))
        assert params.pass_coeffs == (0.5, 1.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            tmr.TmrParams(k=1, p_ph=1e-3)
        with pytest.raises(ValueError, match=r"k must lie in \[2, 1024\], got 1025"):
            tmr.TmrParams(k=tmr.MAX_K + 1, p_ph=1e-3)
        with pytest.raises(ValueError):
            tmr.TmrParams(k=5, p_ph=0.2)
        with pytest.raises(ValueError):
            tmr.TmrParams(k=5, p_ph=1e-3, pass_coeffs=(-1.0,))
        with pytest.raises(ValueError):
            tmr.TmrParams(k=5, p_ph=1e-3, j_max=6)

    def test_largest_k_evaluates(self):
        # p_ideal >= 2^(1-k) and C(k, k/2) stays a float, so every weight is finite
        model = tmr.output_model_for_logical(tmr.TmrParams(k=tmr.MAX_K, p_ph=0.1), 0.196)
        assert model.p_ideal >= 2.0 ** (1 - tmr.MAX_K)
        assert all(math.isfinite(q) for q in model.branch_qbars)


class TestBranchTable:
    @given(
        k=st.integers(2, 15),
        j_frac=st.floats(0.0, 1.0),
        p_ph=st.sampled_from([0.0, 1e-3, 1e-2]),
        thetas=st.lists(st.floats(-12.0, math.log10(tmr.MAX_THETA)), min_size=1, max_size=8),
    )
    def test_matches_scalar_tables(self, k, j_frac, p_ph, thetas):
        j_max = 1 + int(j_frac * (k // 2 - 1))
        params = tmr.TmrParams(k=k, p_ph=p_ph, pass_coeffs=(0.04,), j_max=j_max)
        theta_l = np.minimum(10.0 ** np.array(thetas), tmr.MAX_THETA)
        p_ideal, branch_thetas, qbars = tmr.branch_table(params, theta_l)
        assert branch_thetas.shape == qbars.shape == (len(theta_l), params.j_max + 1)
        for x, pid, row_thetas, row_qbars in zip(theta_l, p_ideal, branch_thetas, qbars):
            model = tmr.output_model_for_logical(params, float(x))
            assert pid == pytest.approx(model.p_ideal, rel=1e-13)
            assert row_thetas == pytest.approx(model.branch_thetas, rel=1e-13, abs=0.0)
            assert row_qbars == pytest.approx(model.branch_qbars, rel=1e-13, abs=0.0)

    @staticmethod
    def _assert_matches_rotations(params, theta_l):
        # 1e-14 relative to max(|want|, tiny): a subnormal qbar_j carries fewer digits
        floor = 1e-14 * np.finfo(float).tiny
        p_ideal, thetas, qbars = tmr.branch_table(params, np.array(theta_l))
        want_p_ideal, want_thetas, want_qbars = rotation_branch_table(params, theta_l)
        assert p_ideal == pytest.approx(want_p_ideal, rel=1e-14, abs=floor)
        assert thetas.tolist() == pytest.approx(want_thetas, rel=1e-14, abs=floor)
        assert qbars.tolist() == pytest.approx(want_qbars, rel=1e-14, abs=floor)

    @pytest.mark.parametrize("k", range(2, 15))
    def test_matches_physical_rotations(self, k):
        params = tmr.TmrParams(k=k, p_ph=1e-2, pass_coeffs=(0.04, 0.5, 2.0))
        for theta_l in (1e-8, 1e-5, 1e-3, 0.05, 0.3, 0.7):
            self._assert_matches_rotations(params, theta_l)

    @given(
        k=st.integers(2, 10),
        j_frac=st.floats(0.0, 1.0),
        exponent=st.floats(-8.0, math.log10(tmr.MAX_THETA)),
        p_ph=st.sampled_from([0.0, 1e-3, 1e-2, tmr.MAX_P_PH]),
        pass_coeffs=st.lists(st.floats(0.0, 10.0), max_size=5),
    )
    # even k with j_max = k // 2: a self-paired middle class
    @example(k=10, j_frac=1.0, exponent=-1.0, p_ph=0.1, pass_coeffs=[])
    # subnormal qbar_1, 16 and 3 subnormal ulps (1e-13 and 7e-14 relative) from the oracle
    @example(k=7, j_frac=0.0, exponent=-1.09765625, p_ph=0.1,
             pass_coeffs=[2.225073858507203e-309])
    @example(k=3, j_frac=0.0, exponent=-0.5, p_ph=0.01, pass_coeffs=[1.1125369292536007e-308])
    def test_matches_physical_rotations_anywhere(self, k, j_frac, exponent, p_ph, pass_coeffs):
        j_max = 1 + int(j_frac * (k // 2 - 1))
        params = tmr.TmrParams(k=k, p_ph=p_ph, pass_coeffs=tuple(pass_coeffs), j_max=j_max)
        self._assert_matches_rotations(params, min(10.0 ** exponent, tmr.MAX_THETA))

    @pytest.mark.parametrize("bad", [0.0, -1e-3, 0.8, math.nan])
    def test_rejects_angles_outside_domain(self, bad):
        with pytest.raises(ValueError):
            tmr.branch_table(tmr.TmrParams(k=5, p_ph=1e-3), np.array([1e-3, bad]))


@pytest.mark.parametrize(
    "call,args,message",
    [
        (tmr.physical_angle_for, (-0.1, 5), r"theta_l must lie in \[0, pi/4\]"),
        (tmr.physical_angle_for, (1.0, 5), r"theta_l must lie in \[0, pi/4\]"),
        (tmr.branch_weights, (tmr.TmrParams(k=5, p_ph=1e-3), 0.0), r"theta must lie in \(0"),
        (tmr.branch_weights, (tmr.TmrParams(k=5, p_ph=1e-3), 1.0), r"theta must lie in \(0"),
        (tmr.branch_weights, (tmr.TmrParams(k=5, p_ph=1e-3), math.inf), r"theta must lie in \(0"),
        (tmr.branch_weights, (tmr.TmrParams(k=5, p_ph=1e-3), math.nan), r"theta must lie in \(0"),
        (tmr.TmrParams, (5, 1e-3, (math.nan,)), "pass coefficient c_1 must be finite and >= 0, got nan"),
        (tmr.TmrParams, (5, 1e-3, (0.5, math.inf)), "pass coefficient c_2 must be finite and >= 0, got inf"),
        (tmr.TmrParams, (5, 1e-3, (-1.0,)), "pass coefficient c_1 must be finite and >= 0, got -1.0"),
        # a whole or fractional float would reach the padding as a sequence repeat count
        (tmr.TmrParams, (7.0, 1e-3), "k must be an integer, got 7.0"),
        (tmr.TmrParams, (2.5, 1e-3), "k must be an integer, got 2.5"),
        (tmr.TmrParams, (7, 1e-3, (), 2.0), "j_max must be an integer, got 2.0"),
        (tmr.TmrParams, (7, 1e-3, (), True), "j_max must be an integer, got True"),
    ],
    ids=["physical-negative", "physical-large", "weights-zero", "weights-large", "weights-inf",
         "weights-nan", "pass-coeff-nan", "pass-coeff-inf", "pass-coeff-negative",
         "k-whole-float", "k-fraction", "j_max-whole-float", "j_max-bool"],
)
def test_validation_names_the_argument(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)
