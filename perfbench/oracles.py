"""Independent oracles for the benchmark's verdict checks.

Neither shares code with the solver paths it checks: `attains` reads only the
cost tables of the input structure, and `xor_satisfiable` reads only the
parity equations the benchmark generated.
"""

from __future__ import annotations

from fractions import Fraction


def attains(structure, instance, plus_inf) -> bool:
    """Exhaustive search: does some assignment cost at most the threshold?

    Variables are assigned in order and each term is charged once its last
    variable is set.  All costs are nonnegative (checked), so a partial sum
    above the threshold rules out every completion; the pruning is exact.
    """
    u = instance.threshold
    position = {v: i for i, v in enumerate(instance.variables)}
    charged_at = [[] for _ in instance.variables]
    for term in instance.terms:
        table = structure.table(term.symbol)
        if any(v is not plus_inf and v < 0 for v in table.values()):
            raise ValueError(f"negative cost in {term.symbol}: pruning unsound")
        idx = tuple(position[a] for a in term.args)
        charged_at[max(idx)].append((idx, table))
    values = [None] * len(instance.variables)

    def extend(k: int, cost: Fraction) -> bool:
        if k == len(values):
            return True
        for a in structure.domain:
            values[k] = a
            total = cost
            for idx, table in charged_at[k]:
                v = table[tuple(values[i] for i in idx)]
                if v is plus_inf:
                    break
                total += v
                if total > u:
                    break
            else:
                if extend(k + 1, total):
                    return True
        return False

    return u >= 0 and extend(0, Fraction(0))


def xor_satisfiable(equations) -> bool:
    """Gaussian elimination over GF(2).

    Each equation is (mask, parity): the xor of the variables whose bits are
    set in mask equals parity.
    """
    basis: dict[int, tuple[int, int]] = {}
    for mask, parity in equations:
        while mask:
            top = mask.bit_length() - 1
            if top not in basis:
                basis[top] = (mask, parity)
                break
            row_mask, row_parity = basis[top]
            mask ^= row_mask
            parity ^= row_parity
        else:
            if parity:
                return False
    return True
