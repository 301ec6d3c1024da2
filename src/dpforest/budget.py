"""Privacy budget accounting.

Spends are tracked in exact rational arithmetic so that, for example, one
hundred queries at eps/100 compose to precisely eps rather than to a float
that drifted in the last bit. Entries carry a scope string: spends inside
one scope compose sequentially (they sum), while spends across different
scopes are treated as acting on disjoint data and compose in parallel (the
maximum applies). Callers are responsible for the disjointness claim that
a scope name encodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInvariantError

EpsilonLike = float | int | str | Fraction

# how a forest spends its budget: disjoint subsets at the full budget, or
# the whole data at budget/trees
BUDGET_MODES = ("disjoint", "split")
DEFAULT_BUDGET_MODE = "disjoint"


def _as_fraction(value: EpsilonLike, what: str) -> Fraction:
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{what} must be finite")
        value = Fraction(value)  # exact binary expansion, no rounding
    frac = Fraction(value)
    if frac <= 0:
        raise ValueError(f"{what} must be positive")
    return frac


@dataclass(frozen=True)
class LedgerEntry:
    scope: str
    epsilon: Fraction


class BudgetLedger:
    """Append-only record of privacy spends against a fixed total."""

    def __init__(self, total: EpsilonLike):
        self._total = _as_fraction(total, "total budget")
        self._entries: list[LedgerEntry] = []

    @property
    def total(self) -> Fraction:
        return self._total

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self._entries)

    def record(self, scope: str, epsilon: EpsilonLike) -> None:
        """Append one spend. Does not enforce the budget by itself."""
        if not scope:
            raise ValueError("scope must be a non-empty string")
        self._entries.append(LedgerEntry(scope, _as_fraction(epsilon, "epsilon")))

    def scope_costs(self) -> dict[str, Fraction]:
        """Sequentially composed cost per scope."""
        costs: dict[str, Fraction] = {}
        for entry in self._entries:
            costs[entry.scope] = costs.get(entry.scope, Fraction(0)) + entry.epsilon
        return costs

    def composed_cost(self) -> Fraction:
        """Overall cost: the maximum over scopes of the per-scope sums.

        Scopes are taken to touch disjoint data, so parallel composition
        applies across them and sequential composition within.
        """
        costs = self.scope_costs()
        if not costs:
            return Fraction(0)
        return max(costs.values())

    def within_budget(self) -> bool:
        return self.composed_cost() <= self._total

    def assert_within_budget(self) -> None:
        """Raise if the composed cost exceeds the total. A bug guard."""
        cost = self.composed_cost()
        if cost > self._total:
            raise InternalInvariantError(
                f"privacy ledger overspent: composed cost {cost} "
                f"exceeds budget {self._total}"
            )
