# The transversal multi-rotation output model: angles, weights, supply time.
#
# k physical rotation factors produce a resource state with logical angle
# theta_L = arcsin(sin^k / sqrt(p_ideal)) ~ theta^k; post-selection passes
# order-j error branches with probability ~ c_j p_ph^j.
import numpy as np

from starsmm import tmr

params = tmr.TmrParams(k=7, p_ph=1e-3)

print("target theta_L   physical theta   p_ideal   supply [clocks]")
for theta_l in (1e-2, 1e-3, 1e-4, 1e-6):
    model = tmr.output_model_for_logical(params, theta_l)
    print(
        f"{theta_l:12.1e}   {model.theta_phys:14.6f}   {model.p_ideal:7.4f}"
        f"   {1 / model.p_ideal:8.3f}"
    )

print("\nbranch table at theta_L = 1e-3:")
model = tmr.output_model_for_logical(params, 1e-3)
for j, (theta_j, qbar_j) in enumerate(zip(model.branch_thetas, model.branch_qbars)):
    print(f"  j={j}: theta_j = {theta_j:+.6e}, qbar_j = {qbar_j:.3e}")

# the error weights scale as theta^(2 min(j, k-j)) p_ph^j
print("\nqbar_1 scaling with the target angle (slope should be 2/k):")
thetas = np.geomspace(1e-6, 1e-3, 4)
q1 = [tmr.output_model_for_logical(params, t).branch_qbars[1] for t in thetas]
slopes = np.diff(np.log(q1)) / np.diff(np.log(thetas))
print("  local slopes:", np.round(slopes, 4), " (2/k =", round(2 / params.k, 4), ")")
