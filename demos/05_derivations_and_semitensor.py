"""The derivation action and the twisted-tensor identification.

x1 and x2 act on the inner algebra by derivations, each given by its
table of generator images (`derivation_images`).  The action is built
so that x1 advances tau_m to tau_{m+1} and x2 turns tau_m into the rho
relation a_m * rho(4, m+1): that is exactly why the relation ideal is
stable, and why the full algebra decomposes degreewise as the free
algebra on x1, x2 tensored with the inner algebra.
"""

from looptorsion.action import (
    act,
    check_preserves_ideal,
    select_convention,
    semi_tensor_dimension_check,
)
from looptorsion.freealg import Element, U1, U3, V, X1, X2, bracket, format_element
from looptorsion.presentation import THEOREM1_PARAMS, coeff_sequence, derivation_images, relation_set_E, rho, tau

images = derivation_images(THEOREM1_PARAMS, "graded")
print("Generator images (c = -3 for the reference parameters):")
print("  x1*u3 =", format_element(act(X1, Element.gen(U3), images, "graded")))
print("  x2*v  =", format_element(act(X2, Element.gen(V), images, "graded")))
print()

print("Structural identities that stabilize the ideal:")
for m in (2, 3):
    lhs = act(X1, tau(m, THEOREM1_PARAMS), images, "graded")
    print(f"  x1 * tau_{m} == tau_{m+1}:", lhs == tau(m + 1, THEOREM1_PARAMS))
    am = dict((mm, a) for mm, a, _ in coeff_sequence(THEOREM1_PARAMS, m))[m]
    print(f"  x2 * tau_{m} == a_{m} rho(4,{m+1}):", act(X2, tau(m, THEOREM1_PARAMS), images, "graded") == rho(4, m + 1) * am)
print()

rels = relation_set_E(THEOREM1_PARAMS, 4)
report = check_preserves_ideal(images, rels, 4)
print("Integral ideal preservation for every relation of degree <= 3:", report["ok"])
bad = {**images, (X1, U1): Element.zero()}
print("Corrupting x1*u1 breaks it:", not check_preserves_ideal(bad, rels, 4)["ok"])
print()

print("Twisted-tensor dimension identity over F_11 (torsion-aware field):")
semi = semi_tensor_dimension_check(THEOREM1_PARAMS, 11, 3, "graded")
for row in semi["degrees"]:
    print(
        f"  degree {row['n']}: dim AX = {row['ax_dim']:4d}, "
        f"sum 2^i dim E = {row['expected_dim']:4d}, divisors match: {row['divisors_ok']}"
    )
print()

print("Convention selection (degree 4, over Q, F_5, F_11 and F_13):")
sel = select_convention()
print("  passing:", sel["passing"], "-> default:", sel["selected_default"])
print("Both sign conventions pass every check and produce identical graded")
print("groups on all computed degrees; graded is the package default.")
