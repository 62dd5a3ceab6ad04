"""Walk through the parameterized presentation layer.

The construction is driven by six integers (a, b, c, d, a2, b2).  They
seed an affine recurrence producing coefficient pairs (a_m, b_m), and
those coefficients assemble the relation families presenting the two
graded algebras.
"""

from looptorsion.freealg import format_element
from looptorsion.numtheory import theorem2_params
from looptorsion.presentation import THEOREM1_PARAMS, coeff_sequence, relation_set_AX, relation_set_E, rho, sigma, tau

print("reference parameters:", THEOREM1_PARAMS)
print()

print("The coefficient recurrence a_m = a + b a_{m-1} + c b_{m-1}, b_m = d a_{m-1}:")
for m, am, bm in coeff_sequence(THEOREM1_PARAMS, 8):
    print(f"  m={m}: a_m = {am:6d} = 2 + 3^{m},  b_m = {bm:6d} = 2 + 3^{m-1}")
print("With these parameters the closed form a_m = 2 + 3^m holds exactly.")
print()

print("The product family (a = 30, b = 1, c = d = 0, seeds 1, 0) is linear instead:")
for m, am, _ in coeff_sequence(theorem2_params([2, 3, 5]), 6):
    print(f"  m={m}: a_m = {am} = 1 + 30*({m}-2)")
print()

print("Iterated brackets in the inner algebra (graded convention):")
print("  sigma(2,1) =", format_element(sigma(2, 1)))
print("  sigma(2,2) =", format_element(sigma(2, 2)))
print("  sigma(2,3) =", format_element(sigma(2, 3)))
print("  rho(4,3)   =", format_element(rho(4, 3)))
print("  tau(2)     =", format_element(tau(2, THEOREM1_PARAMS)))
print()

rels_e = relation_set_E(THEOREM1_PARAMS, 4)
print("Relation family presenting the inner algebra E, truncated at degree 4:")
for rel in rels_e.relations:
    print(f"  [{rel.tag}] degree {rel.degree}: {format_element(rel.element)}")
print()

rels_ax = relation_set_AX(THEOREM1_PARAMS)
print(f"The full algebra AX is presented by {len(rels_ax.relations)} quadratic relations;")
print("the thirteenth coincides with tau(2):")
print("  ", format_element(rels_ax.relations[12].element))
assert rels_ax.relations[12].element == tau(2, THEOREM1_PARAMS)
