# The target-system catalog, and the Hubbard L1 norm of the Jordan-Wigner
# term list checked against the catalog formula.
from starsmm import hamcat

print("catalog (lattice rows evaluated at J=1, h=1, t=1, U=4, N=10, L=10):")
for entry in hamcat.catalog():
    print(f"  {entry.name:15s} N_L = {entry.n_l:4d}   lambda = {entry.lam:8.1f} {entry.unit}")

# generate the Jordan-Wigner terms for a 4x4 periodic lattice and compare
terms = hamcat.hubbard_terms(4, 1.0, 4.0)
lam = hamcat.l1_norm(terms)
formula = hamcat.hubbard_entry(1.0, 4.0, 4).lam
print(f"\n4x4 Hubbard: {len(terms)} terms (9 L^2 = {9 * 16}),"
      f" sum|c| = {lam} vs formula {formula}")

