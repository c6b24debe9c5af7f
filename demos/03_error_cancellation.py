# Probabilistic coherent error cancellation, checked against the exact channel.
#
# Sampling the inverse over-rotation with the branch weights turns the
# coherent error into stochastic Z noise. The residual flip rate
# 2 sum qbar_j sin^2(Delta_j) matches the exact composed channel up to
# O((sum qbar)^2) cross terms.
from starsmm import pcec, tmr, zchan

params = tmr.TmrParams(k=5, p_ph=1e-3)

print("theta_L    analytic residual   exact twirl      gap        10 Q^2 bound")
for theta_l in (1e-4, 1e-3, 1e-2, 1e-1):
    model = tmr.output_model_for_logical(params, theta_l)
    analytic = pcec.residual_rate(model)
    row = model.branch_thetas, model.branch_qbars
    exact = zchan.twirled_z_error(pcec.composed_error_channel(*row), 0.0)
    bound = 10 * model.error_weight() ** 2
    print(
        f"{theta_l:7.0e}    {analytic:15.6e}   {exact:12.6e}"
        f"   {abs(analytic - exact):9.2e}  {bound:9.2e}"
    )

# the canceller itself: identity most of the time, inverse rotations otherwise
model = tmr.output_model_for_logical(params, 1e-2)
row = model.branch_thetas, model.branch_qbars
print("\ncanceller branches at theta_L = 1e-2:")
for w, phi in pcec.build_canceller(*row).branches:
    print(f"  weight {w:.3e}  angle {phi:+.6f}")

# and the coherent remainder of the composed channel really is second order
composed = pcec.composed_error_channel(*row)
print("\ncoherent remainder:", zchan.worst_case_vs_pauli_model(composed, 0.0))
print("residual rate     :", pcec.residual_rate(model))
