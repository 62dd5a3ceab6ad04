"""Which primes are torsion primes?  Exact classification and census.

For the reference family a prime p is a torsion prime exactly when
2 + 3^m = 0 mod p has a solution, that is when -2 is a power of 3 mod
p.  Two residue classes mod 24 are provably free of solutions;
everything else is settled by the order test (-2)^ord_p(3) = 1 mod p,
and the least witness m is the discrete log of -2 to base 3.  Walking
the full cycle of powers of 3 is kept as the oracle that checks both.
The classical shortcut "3 a non-residue
means 3 is a primitive root" would make classes 5, 7, 17, 19 always
solvable, but it is unsound, and the census quantifies how far off it
is.
"""

from looptorsion.numtheory import (
    census,
    census_table,
    classify_prime_theorem1,
    divides_some_am,
    theorem2_params,
)

print("Sample classifications (reference family):")
for p in (11, 13, 17, 23, 29, 41, 103):
    cls = classify_prime_theorem1(p)
    witness = f", witness m = {cls.witness} (2 + 3^{cls.witness} = {2 + 3**cls.witness})" if cls.witness else ""
    print(f"  p = {p:4d} ({p % 24:2d} mod 24): {cls.verdict} via {cls.mechanism}{witness}")
print()
print("p = 41 and p = 103 sit in 'always torsion' classes 17 and 7 yet have no")
print("witness: (-2)^ord_p(3) != 1 mod p, so the primitive-root shortcut fails.")
print()

print("Census of all primes below 20000, by residue class mod 24:")
print(census_table(census(20_000)))
print("Classes 13 and 23 are exactly 0% torsion (that direction is a theorem);")
print("the other classes are measured, not assumed.")
print()

params = theorem2_params([2, 3, 5])
print("Product family excluding {2, 3, 5} (a = 30): witnesses from the recurrence walk:")
for q in (2, 3, 5, 7, 11, 13):
    m = divides_some_am(params, q)
    print(f"  q = {q:2d}: {'no witness (excluded)' if m is None else f'a_{m} = {1 + 30 * (m - 2)} divisible by {q}'}")
