# Mitigation budgets and feasible circuit sizes across architectures.
#
# PEC removes the residual stochastic-Z errors at a sampling price of
# e^(4 P_total); keeping P_total <~ 1 caps the circuit size. The frontier
# N_R(N_T) solving P_total = 1 separates the four architecture variants.
from starsmm import mitigation, smm, tepai

theta_star = 1e-5

print("N_R intercepts at N_T = 0, theta* = 1e-5:")
alpha = tepai.smm_alpha_provider(1e-3, c1=smm.calibrate_c1())
for arch in mitigation.ARCHITECTURES:
    n_r = mitigation.feasible_boundary(arch, theta_star, [0.0], alpha_model=alpha)[0][1]
    print(f"  {arch:17s} {n_r:.3e}")

print("\nfrontier N_R(N_T) for the SMM-based architecture:")
grid = [0.0, 1e6, 1e7, 1e8, 5e8]
for n_t, n_r in mitigation.feasible_boundary("v3", theta_star, grid, alpha_model=alpha):
    print(f"  N_T = {n_t:8.1e}  ->  N_R = {n_r:.3e}")

# a first-order Trotter circuit is feasible while lambda T <~ 1/(alpha p_ph)
lam, alpha_max, p_ph = 100.0, 0.1, 1e-3
print("\nTrotter horizon for lambda = 100, alpha_max = 0.1, p_ph = 1e-3:")
print("  T <~", 1.0 / (alpha_max * lam * p_ph))

# the sampling price of the budget is gamma_total^2 = e^(4 P_total)
profile = mitigation.CircuitProfile(
    n_t=10 ** 6, rotations=((theta_star, 10 ** 7),), architecture="v3"
)
p_total = mitigation.total_budget(profile, alpha_model=0.1)
print(f"\nexample circuit: P_total = {p_total:.4f}, "
      f"gamma_total^2 = {mitigation.sampling_price(p_total):.4f}, feasible = {p_total <= 1}")
