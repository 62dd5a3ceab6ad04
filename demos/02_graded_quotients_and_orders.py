"""Degreewise structure of the quotient algebras over the integers.

Each degree of the quotient is a finitely generated abelian group: its
free rank and elementary divisors come from the Smith normal form of
the degreewise relation matrix.  The divisors are where torsion lives,
and the rho family realizes exactly the predicted orders.  The torsion
report counts the same pieces in closed form, without a matrix.
"""

from looptorsion.count import counted_pieces
from looptorsion.presentation import THEOREM1_PARAMS, relation_set_E, rho, tau
from looptorsion.quotient import element_order, graded_piece, ideal_spanning_matrix, torsion_primes_up_to

rels = relation_set_E(THEOREM1_PARAMS, 5)

print("Degreewise relation matrices and quotient structure for E:")
for n in range(6):
    matrix = ideal_spanning_matrix(rels, n)
    piece = graded_piece(rels, n)
    divisors = ",".join(map(str, piece.divisors)) or "-"
    print(
        f"  degree {n}: matrix {len(matrix.rows):4d} x {matrix.ncols:4d}, "
        f"free rank {piece.free_rank:4d}, divisors {divisors}"
    )
print()
print("Degree 4 torsion reads (Z/11)^12 + Z/29 once 319 = 11*29 is split;")
print("degree 5 adds Z/83 via 26477 = 11*29*83.")
print()

print("Orders of the rho family in the quotient (a_2 = 11, a_3 = 29, a_4 = 83):")
for m in (2, 3, 4, 5):
    order = element_order(rho(4, m), rels, m)
    print(f"  rho(4,{m}) has order {order if order else 'infinite'}")
print("rho(4,2) is order-free: the only degree-2 relation has no u4 support.")
print("tau(2) is itself a relation, so its order is", element_order(tau(2, THEOREM1_PARAMS), rels, 2))
print()

report = torsion_primes_up_to(rels, 5)
print("Torsion report through degree 5:")
same = counted_pieces(rels, 5) == [graded_piece(rels, n) for n in range(6)]
print("  pieces counted in closed form equal the Smith form's:", same)
print("  computed torsion primes:", report.computed_primes)
print("  predicted (primes of a_2..a_4):", report.predicted_primes)
print("  agree:", report.agree)
