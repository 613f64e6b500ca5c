"""Compositions: the bosonic and fermionic degree vectors of a shell.

The monomial model of the free superalgebra (monomial spaces, signed index
maps, invariant bases) is the ideal side of the engine's results and lives
with the test oracles; the engine works on the quotient alone.
"""

from __future__ import annotations

from functools import cache

__all__: list = []


@cache
def _compositions(total: int, n: int) -> tuple:
    """All length-n tuples of nonnegative ints summing to total, lex order."""
    if n == 0:
        return ((),) if total == 0 else ()
    if n == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            out.append((first,) + rest)
    return tuple(out)


# Names the benchmark's tracer (perfbench/tracer.py) still looks up.  No code
# path reaches them since the monomial model moved to the test oracles;
# ROADMAP N3 retires the tracer's patches, and these names with them.
monomial_space = invariant_vectors = mono_mul = invariant_basis = None
