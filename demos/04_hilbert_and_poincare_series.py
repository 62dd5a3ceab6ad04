"""Dimension series over fields and the loop-space Poincare transform.

Over a field the quotient has a dimension series A(t).  Comparing the
series over Q with the series over F_p localizes torsion: the dimension
jumps in degree n exactly by the number of elementary divisors p
divides there.  The closed-form count gives the same series with no
matrix, since the F_p quotient is the integer quotient tensored with
F_p.  The transform P(t)^-1 = (1+t) A(t)^-1 - t + 8t^2 - 13t^3
turns the full algebra's series into loop-space Betti numbers.
"""

from looptorsion.count import counted_dimensions
from looptorsion.presentation import THEOREM1_PARAMS, relation_set_AX, relation_set_E
from looptorsion.quotient import dimension, graded_piece
from looptorsion.series import format_series, invert_series, roos_poincare

rels_e = relation_set_E(THEOREM1_PARAMS, 5)
print("Inner algebra dimension series (truncated at degree 5), from the rank")
print("of each degree matrix and from the closed-form count that `hilbert` reads:")
for field in ("Q", 11, 13):
    series = [dimension(rels_e, n, field) for n in range(6)]
    counted = counted_dimensions("E", THEOREM1_PARAMS, field, 5)
    print(f"  over {str(field):>2}, rank:  {format_series(series)}")
    print(f"  over {str(field):>2}, count: {format_series(counted)}  (equal: {counted == series})")
print()

print("The F_11 jumps match the 11-divisor counts degree by degree:")
for n in range(6):
    drop = sum(1 for d in graded_piece(rels_e, n).divisors if d % 11 == 0)
    dim_q, dim_f11 = dimension(rels_e, n, "Q"), dimension(rels_e, n, 11)
    print(f"  degree {n}: dim_Q = {dim_q:4d}, dim_F11 = {dim_f11:4d}, divisors with 11: {drop}")
print()

rels_ax = relation_set_AX(THEOREM1_PARAMS)
a13 = [dimension(rels_ax, n, 13) for n in range(5)]
p13 = roos_poincare(a13)
print("Full algebra over F_13 and the loop-space series:")
print("  A(t) =", format_series(a13))
print("  P(t) =", format_series(p13))
print("  (13 divides no elementary divisor through degree 4, so A agrees with")
print("   the rational series, and here P happens to coincide with A.)")
print()

free = invert_series([1, -8, 0, 0, 0])
print("Sanity case, the free algebra on 8 generators:")
print("  A(t) =", format_series(free))
print("  P(t) =", format_series(roos_poincare(free)))
print("  P(t)^-1 =", format_series(invert_series(roos_poincare(free))), " (= 1 - 8t - 13t^3)")
