"""Torsion primes of finitely presented graded algebras, computed exactly.

The package builds the parameterized relation families presenting two
graded algebras (an inner algebra E on six generators and a full
algebra AX on eight), computes their degreewise abelian-group structure
by a closed-form count and, as its oracle, by integer Smith normal
form, relates the two through a derivation action, evaluates Hilbert
and loop-space Poincare series, and classifies torsion primes by
elementary number theory.

The package exports nothing itself, and importing it loads no
submodule: each name is imported from the module that defines it, for
example ``from looptorsion.presentation import relation_set_E``.
"""
