import math

import numpy as np
import pytest

from starsmm import hamcat, mitigation, tepai


class TestSelectAngle:
    def test_balanced_point(self):
        assert tepai.select_angle(0.5, 1.0) == pytest.approx(math.pi / 4)

    def test_reference_instance(self):
        assert tepai.select_angle(1378.0, 1.0) == pytest.approx(3.6284468654e-4, rel=1e-9)

    def test_overhead_identity_at_selected_angle(self):
        for lam_t in (1.0, 42.0, 1378.0):
            for q in (0.25, 1.0, 3.0):
                delta = tepai.select_angle(lam_t, q)
                gamma_sq, _ = tepai.sampling_overhead(lam_t, delta, 0.1)
                assert gamma_sq == pytest.approx(math.exp(q), rel=1e-12)


class TestGateCount:
    def test_identity_at_selected_angle(self):
        for lam_t in np.geomspace(1.0, 1e5, 11):
            for q in (0.1, 1.0, 5.0):
                delta = tepai.select_angle(lam_t, q)
                closed = 2.0 * lam_t ** 2 / q + q
                assert tepai.gate_count(lam_t, delta) == pytest.approx(closed, rel=1e-10)

    def test_reference_count(self):
        delta = tepai.select_angle(1378.0, 1.0)
        assert tepai.gate_count(1378.0, delta) == pytest.approx(3_797_769.0, rel=1e-10)

    def test_large_angle_point(self):
        # Delta -> pi/4: csc(pi/2)(3 - 0) * 1 = 3
        assert tepai.gate_count(1.0, math.pi / 4) == pytest.approx(3.0, rel=1e-14)

    def test_global_minimum(self):
        lam_t = 11.0
        floor = tepai.MIN_GATE_FACTOR * lam_t
        grid = np.linspace(1e-3, math.pi / 2 - 1e-3, 4001)
        vals = [tepai.gate_count(lam_t, d) for d in grid]
        assert min(vals) >= floor - 1e-9
        d_star = math.atan(1.0 / math.sqrt(2.0))
        assert tepai.gate_count(lam_t, d_star) == pytest.approx(floor, rel=1e-12)
        # equality only near the optimum
        for d in grid:
            if abs(d - d_star) > 0.05:
                assert tepai.gate_count(lam_t, d) > floor + 1e-6

    def test_domain(self):
        with pytest.raises(ValueError):
            tepai.gate_count(1.0, 0.0)
        with pytest.raises(ValueError):
            tepai.gate_count(1.0, math.pi / 2)


class TestSamplingOverhead:
    def test_shot_count_reference(self):
        delta = tepai.select_angle(1378.0, 1.0)
        gamma_sq, n_s = tepai.sampling_overhead(1378.0, delta, 0.05)
        assert n_s == math.ceil(math.e * 400)
        assert n_s == 1088

    def test_small_angle_limit(self):
        gamma_sq, _ = tepai.sampling_overhead(10.0, 1e-9, 0.1)
        assert gamma_sq == pytest.approx(1.0, abs=1e-7)


class TestLogicalErrorPerCycle:
    def test_point_values(self):
        assert tepai.logical_error_per_cycle(1e-3, 11) == pytest.approx(1e-7, rel=1e-12)
        assert tepai.logical_error_per_cycle(1e-3, 23) == pytest.approx(1e-13, rel=1e-12)

    def test_threshold_limit(self):
        for d in (3, 11, 25):
            assert tepai.logical_error_per_cycle(9.99999e-3, d) == pytest.approx(
                0.1, rel=1e-4
            )

    def test_rejects_even_distance(self):
        with pytest.raises(ValueError):
            tepai.logical_error_per_cycle(1e-3, 12)


class TestPatchCount:
    @pytest.mark.parametrize("n_l,expected", [(72, 179), (2, 19), (32, 91)])
    def test_values(self, n_l, expected):
        assert tepai.patch_count(n_l) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            tepai.patch_count(0)


def _fes_instance(**kwargs):
    defaults = dict(
        lam=137.8, t=10.0, n_l=72, epsilon=0.05, q=1.0, p_ph=1e-3,
        c_smm=3.0, alpha_model=0.1, name="4Fe-4S",
    )
    defaults.update(kwargs)
    return tepai.TepaiInstance(**defaults)


class TestSolveCodeDistance:
    def test_reference_instance(self):
        n_gate = tepai.gate_count(1378.0, tepai.select_angle(1378.0, 1.0))
        d = tepai.solve_code_distance(n_gate, 179, 1e-3, 3.0)
        assert d == 23
        # minimality: d - 2 must violate the budget condition
        demand = 100.0 * 21 * n_gate * 3.0 * 179
        assert 1.0 / tepai.logical_error_per_cycle(1e-3, 21) < demand

    def test_tiny_instance_minimality(self):
        d = tepai.solve_code_distance(1.0, tepai.patch_count(2), 1e-3, 3.0)
        assert d >= 3
        if d > 3:
            demand = 100.0 * (d - 2) * 1.0 * 3.0 * tepai.patch_count(2)
            assert 1.0 / tepai.logical_error_per_cycle(1e-3, d - 2) < demand

    def test_monotone_in_gate_count(self):
        prev = 3
        for n_gate in np.geomspace(1.0, 1e12, 13):
            d = tepai.solve_code_distance(n_gate, 179, 1e-3, 3.0)
            assert d >= prev
            prev = d

    def test_out_of_range_raises(self):
        with pytest.raises(tepai.DistanceSolveError):
            tepai.solve_code_distance(1e6, 179, 9e-3, 3.0)


class TestSmmAlphaProvider:
    def test_beyond_threshold_is_pure_synthesis(self):
        # |theta| >= theta_th runs no analog trial: P_L = delta + p_m N_syn
        # with delta = p_m, spread over the requested angle
        p_ph, p_m, theta_th = 1e-3, 2e-9, tepai.SMM_THETA_TH
        alpha = tepai.smm_alpha_provider(p_ph, p_m=p_m, c1=0.0367)
        p_l = p_m * (1 + mitigation.synthesis_t_count(p_m))
        for theta in (theta_th, 0.0131, 0.3):
            assert alpha(theta) == pytest.approx(p_l / (theta * p_ph), rel=1e-12)


class TestEstimate:
    def test_reference_headline(self):
        est = tepai.estimate(_fes_instance())
        assert est.d == 23
        assert est.n_patch == 179
        assert est.physical_qubits == 189_382
        assert abs(est.physical_qubits - 1.9e5) / 1.9e5 < 0.05
        assert est.single_shot_seconds == pytest.approx(262.046061, rel=1e-9)
        assert est.total_seconds <= 7 * 86400.0
        assert est.total_seconds == pytest.approx(494441.9, rel=1e-4)

    def test_small_problem_limit(self):
        est = tepai.estimate(_fes_instance(lam=1e-3, t=1.0, n_l=2))
        assert est.n_gate == pytest.approx(1.0, rel=1e-5)  # -> Q
        assert est.total_seconds < 60.0

    def test_monotone_in_lambda_t(self):
        prev_qubits, prev_time = 0, 0.0
        for t in (1.0, 5.0, 10.0, 30.0):
            est = tepai.estimate(_fes_instance(t=t))
            assert est.physical_qubits >= prev_qubits
            assert est.total_seconds >= prev_time
            prev_qubits, prev_time = est.physical_qubits, est.total_seconds

    def test_monotone_in_accuracy(self):
        loose = tepai.estimate(_fes_instance(epsilon=0.1))
        tight = tepai.estimate(_fes_instance(epsilon=0.05))
        assert tight.total_seconds > loose.total_seconds
        assert tight.physical_qubits == loose.physical_qubits

    def test_hubbard_regime(self):
        # 10x10 lattice: a few-hundred-thousand-qubit machine suffices; in
        # the week-scale-runtime regime (small T) it stays under 6e5
        entry = hamcat.hubbard_entry(1.0, 4.0, 10)
        est2 = tepai.estimate(
            _fes_instance(lam=entry.lam, t=2.0, n_l=entry.n_l, name="hubbard")
        )
        assert est2.physical_qubits < 6e5
        assert est2.total_seconds < 7 * 86400.0
        est20 = tepai.estimate(
            _fes_instance(lam=entry.lam, t=20.0, n_l=entry.n_l, name="hubbard")
        )
        assert est20.physical_qubits < 7e5

    def test_molecule_grid_qubit_range(self):
        # 72-orbital molecules across lambda in [10, 300], T in [1, 50]:
        # the machine size stays within the published few-1e5 window
        qubits = []
        for lam in (10.0, 100.0, 300.0):
            for t in (1.0, 10.0, 50.0):
                if lam * t > 15000.0:
                    continue
                est = tepai.estimate(_fes_instance(lam=lam, t=t))
                qubits.append(est.physical_qubits)
        assert min(qubits) >= 0.5e5
        assert max(qubits) <= 2.7e5

    def test_smm_backed_alpha_default(self):
        est = tepai.estimate(_fes_instance(alpha_model=tepai.smm_alpha_provider(1e-3), t=1.0))
        assert est.p_total > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _fes_instance(epsilon=1.5)
        with pytest.raises(ValueError):
            _fes_instance(q=0.0)
        with pytest.raises(ValueError):
            _fes_instance(lam=0.0)


@pytest.mark.parametrize(
    "call,kwargs,message",
    [
        (tepai.select_angle, dict(lambda_t=0.0, q=1.0), r"lambda\*T and Q must be positive"),
        (tepai.select_angle, dict(lambda_t=1.0, q=0.0), r"lambda\*T and Q must be positive"),
        (tepai.gate_count, dict(lambda_t=0.0, delta=0.1), r"lambda\*T must be positive"),
        (tepai.sampling_overhead, dict(lambda_t=0.0, delta=0.1, epsilon=0.05),
         r"need lambda\*T > 0"),
        (tepai.sampling_overhead, dict(lambda_t=1.0, delta=0.0, epsilon=0.05),
         r"delta in \(0, pi/2\)"),
        (tepai.sampling_overhead, dict(lambda_t=1.0, delta=0.1, epsilon=1.0),
         r"epsilon must lie in \(0, 1\)"),
        (tepai.logical_error_per_cycle, dict(p_ph=0.0, d=3), r"p_ph must lie in .*, got 0.0"),
        (tepai.logical_error_per_cycle, dict(p_ph=0.01, d=3), r"p_ph must lie in .*, got 0.01"),
        (_fes_instance, dict(n_l=0), "N_L must be >= 1"),
        (_fes_instance, dict(c_smm=0.0), "c_smm must be positive"),
    ],
    ids=["angle-lambda_t", "angle-q", "gates-lambda_t", "overhead-lambda_t", "overhead-delta",
         "overhead-epsilon", "cycle-p_ph-zero", "cycle-p_ph-threshold", "instance-n_l",
         "instance-c_smm"],
)
def test_validation_names_the_argument(call, kwargs, message):
    with pytest.raises(ValueError, match=message):
        call(**kwargs)
