import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from starsmm import tmr


def leading_error_angle(theta: float, k: int) -> float:
    """The j = 1 branch angle from its dedicated closed form.

    -arcsin( sin^{k-2} / sqrt(sin^{2k-4} + cos^{2k-4}) ); kept separate from
    :func:`tmr.branch_angles` as a cross-check identity.
    """
    s, c = math.sin(theta), math.cos(theta)
    return -math.asin(s ** (k - 2) / math.sqrt(s ** (2 * k - 4) + c ** (2 * k - 4)))


def _asin_branch_angle(theta: float, k: int, j: int) -> float:
    """theta_j from the branch amplitudes: arcsin(|u_{k-j}| / sqrt(|u_j|^2 + |u_{k-j}|^2)).

    Where the arcsin argument nears 1 (j > k/2) the same angle is taken as
    pi/2 - arcsin(|u_j| / ...), which keeps the oracle well conditioned.
    """
    s, c = math.sin(theta), math.cos(theta)
    ua = s ** j * c ** (k - j)
    ub = s ** (k - j) * c ** j
    h = math.hypot(ua, ub)
    mag = math.asin(ub / h) if ub <= ua else 0.5 * math.pi - math.asin(ua / h)
    return mag if j % 2 == 0 else -mag


class TestPIdeal:
    def test_zero_angle(self):
        for k in (1, 2, 5, 9):
            assert tmr.p_ideal(0.0, k) == 1.0

    @pytest.mark.parametrize("k", [2, 3, 5, 7, 9])
    def test_quarter_pi(self, k):
        assert tmr.p_ideal(math.pi / 4, k) == pytest.approx(2.0 ** (1 - k), rel=1e-14)

    def test_point_value(self):
        # oracle: 1 - 3 sin^2 cos^2 for k = 3
        s, c = math.sin(0.1), math.cos(0.1)
        assert tmr.p_ideal(0.1, 3) == pytest.approx(1 - 3 * s * s * c * c, rel=1e-14)
        assert tmr.p_ideal(0.1, 3) == pytest.approx(0.9703978727510822, rel=1e-13)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            tmr.p_ideal(0.1, 0)


class TestLogicalAngle:
    def test_zero(self):
        assert tmr.logical_angle(0.0, 5) == 0.0

    @pytest.mark.parametrize("k", [2, 3, 5, 7, 9])
    def test_quarter_pi_fixed_point(self, k):
        assert tmr.logical_angle(math.pi / 4, k) == pytest.approx(math.pi / 4, rel=1e-14)

    def test_point_value(self):
        assert tmr.logical_angle(0.1, 3) == pytest.approx(1.0100734581612856e-3, rel=1e-13)

    @pytest.mark.parametrize("k", [2, 3, 5, 7, 9])
    def test_arctan_power_identity(self, k):
        # independent closed form: theta_L = arctan(tan^k theta)
        for theta in np.linspace(0.01, math.pi / 4, 30):
            expected = math.atan(math.tan(theta) ** k)
            assert tmr.logical_angle(theta, k) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("k", [3, 5, 9])
    def test_strictly_monotone(self, k):
        grid = np.linspace(0.0, math.pi / 4, 200)
        vals = [tmr.logical_angle(t, k) for t in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_small_angle_power_law(self):
        for k in (3, 5):
            theta = 1e-3
            assert tmr.logical_angle(theta, k) == pytest.approx(theta ** k, rel=1e-4)

    def test_domain(self):
        with pytest.raises(ValueError):
            tmr.logical_angle(-0.1, 3)
        with pytest.raises(ValueError):
            tmr.logical_angle(1.0, 3)


class TestPhysicalAngleFor:
    def test_endpoints(self):
        assert tmr.physical_angle_for(0.0, 5) == 0.0
        assert tmr.physical_angle_for(math.pi / 4, 5) == pytest.approx(math.pi / 4, abs=1e-15)

    @pytest.mark.parametrize("k", [2, 3, 5, 7, 9])
    def test_round_trip(self, k):
        for x in np.geomspace(1e-8, 0.2, 25):
            theta = tmr.physical_angle_for(x, k)
            assert tmr.logical_angle(theta, k) == pytest.approx(x, abs=1e-12, rel=1e-10)

    @given(
        x=st.floats(min_value=1e-12, max_value=math.pi / 4),
        k=st.integers(min_value=2, max_value=15),
    )
    def test_closed_form_inverts_asin_map(self, x, k):
        theta = tmr.physical_angle_for(x, k)
        assert tmr.logical_angle(theta, k) == pytest.approx(x, rel=1e-12)


class TestBranchAngles:
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_j0_is_logical_angle(self, k):
        for theta in (0.05, 0.2, 0.7):
            assert tmr.branch_angles(theta, k, 0) == pytest.approx(
                tmr.logical_angle(theta, k), rel=1e-14
            )

    def test_k3_leading_branch_is_minus_theta(self):
        assert tmr.branch_angles(0.1, 3, 1) == pytest.approx(-0.1, rel=1e-14)

    @pytest.mark.parametrize("k", [3, 4, 5, 7, 9])
    def test_j1_matches_dedicated_closed_form(self, k):
        for theta in np.linspace(0.02, math.pi / 4, 20):
            assert tmr.branch_angles(theta, k, 1) == pytest.approx(
                leading_error_angle(theta, k), abs=1e-12
            )

    @pytest.mark.parametrize("k", [4, 5, 7])
    def test_sign_alternation(self, k):
        for theta in (0.05, 0.3):
            for j in range(k + 1):
                val = tmr.branch_angles(theta, k, j)
                assert math.copysign(1.0, val) == (-1.0) ** j

    def test_rejects_out_of_range_j(self):
        with pytest.raises(ValueError):
            tmr.branch_angles(0.1, 3, 4)

    @given(
        theta=st.floats(min_value=1e-6, max_value=math.pi / 4),
        k=st.integers(min_value=2, max_value=15),
        data=st.data(),
    )
    def test_closed_form_matches_asin_form(self, theta, k, data):
        j = data.draw(st.integers(min_value=0, max_value=k))
        assert tmr.branch_angles(theta, k, j) == pytest.approx(
            _asin_branch_angle(theta, k, j), rel=0.0, abs=1e-12
        )

    def test_negative_powers_do_not_overflow(self):
        # j = k takes tan^-k(theta), beyond float range for tiny theta
        assert tmr.branch_angles(1e-40, 9, 9) == pytest.approx(-math.pi / 2, abs=1e-15)


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
        q0 = tmr.p_ideal(0.1, 3)
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
            raw_q2 / tmr.p_ideal(theta, k), rel=1e-12
        )


class TestPairWeight:
    @staticmethod
    def _inline_qbars(params, theta):
        # branch_weights' weights as written before pair_weight was factored out
        k = params.k
        q = [tmr.p_ideal(theta, k)]
        for j in range(1, params.j_max + 1):
            sample = math.comb(k, j) * (
                tmr._u_abs(theta, k, j) ** 2 + tmr._u_abs(theta, k, k - j) ** 2
            )
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
        assert 1 / tmr.p_ideal(1e-6, 5) == pytest.approx(1.0, rel=1e-9)

    def test_quarter_pi_k7(self):
        assert 1 / tmr.p_ideal(math.pi / 4, 7) == pytest.approx(64.0, rel=1e-12)

    def test_reference_operating_point(self):
        # one accepted state within a few clocks at theta_l = 1e-3, k = 5
        theta = tmr.physical_angle_for(1e-3, 5)
        assert 1.0 <= 1 / tmr.p_ideal(theta, 5) <= 3.0


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
        # j_max up to k covers the negative powers of the branch-angle form
        j_max = 1 + int(j_frac * (k - 1))
        params = tmr.TmrParams(k=k, p_ph=p_ph, pass_coeffs=(0.04,), j_max=j_max)
        theta_l = np.minimum(10.0 ** np.array(thetas), tmr.MAX_THETA)
        p_ideal, branch_thetas, qbars = tmr.branch_table(params, theta_l)
        assert branch_thetas.shape == qbars.shape == (len(theta_l), params.j_max + 1)
        for x, pid, row_thetas, row_qbars in zip(theta_l, p_ideal, branch_thetas, qbars):
            model = tmr.output_model_for_logical(params, float(x))
            assert pid == pytest.approx(model.p_ideal, rel=1e-13)
            assert row_thetas == pytest.approx(model.branch_thetas, rel=1e-13, abs=0.0)
            assert row_qbars == pytest.approx(model.branch_qbars, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, 0.8, math.nan])
    def test_rejects_angles_outside_domain(self, bad):
        with pytest.raises(ValueError):
            tmr.branch_table(tmr.TmrParams(k=5, p_ph=1e-3), np.array([1e-3, bad]))


@pytest.mark.parametrize(
    "call,args,message",
    [
        (tmr.p_ideal, (math.inf, 5), "theta must be finite"),
        (tmr.p_ideal, (0.1, 0), "k must be >= 1"),
        (tmr.logical_angle, (0.1, 0), "k must be >= 1"),
        (tmr.physical_angle_for, (-0.1, 5), r"theta_l must lie in \[0, pi/4\]"),
        (tmr.physical_angle_for, (1.0, 5), r"theta_l must lie in \[0, pi/4\]"),
        (tmr.branch_angles, (0.1, 5, 6), r"j must lie in \[0, k\]"),
        (tmr.branch_angles, (0.0, 5, 1), r"theta must lie in \(0, pi/4\]"),
        (tmr.branch_weights, (tmr.TmrParams(k=5, p_ph=1e-3), 0.0), r"theta must lie in \(0"),
        (tmr.branch_weights, (tmr.TmrParams(k=5, p_ph=1e-3), 1.0), r"theta must lie in \(0"),
    ],
    ids=["p_ideal-theta", "p_ideal-k", "logical-k", "physical-negative", "physical-large",
         "angles-j", "angles-theta", "weights-zero", "weights-large"],
)
def test_validation_names_the_argument(call, args, message):
    with pytest.raises(ValueError, match=message):
        call(*args)
