"""Binomial decompositions, pseudopowers and M-vector tests.

The greedy binomial decomposition of ell at position i writes
ell = C(n_i, i) + C(n_{i-1}, i-1) + ... + C(n_s, s) with
n_i > n_{i-1} > ... > n_s >= s >= 1; it exists and is unique for every
ell >= 0 (the empty decomposition for 0).  The pseudopower ell^<i> shifts
every term to C(n_t + 1, t + 1).
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Sequence

from ._record import _Record
from .report import Check, Precondition, make_report, VerificationReport
from .vectors import HVector

__all__ = [
    "MacaulayDecomposition",
    "macaulay_rep",
    "pseudopower",
    "MVectorCheck",
    "is_m_vector",
    "check_g_theorem_conditions",
]


class MacaulayDecomposition(_Record):
    value: int
    position: int
    terms: tuple[tuple[int, int], ...]  # (n_t, t), t strictly decreasing

    def total(self) -> int:
        return sum(comb(n, t) for n, t in self.terms)


def macaulay_rep(value: int, position: int) -> MacaulayDecomposition:
    """Greedy binomial decomposition of ``value`` at ``position``.

    Each term takes the largest n with C(n, t) <= what is left, found by
    doubling a step from n = t and then bisecting the last step.
    """
    if value < 0:
        raise ValueError("value must be nonnegative")
    if position < 1:
        raise ValueError("position must be at least 1")
    terms = []
    remaining = value
    t = position
    while remaining > 0:
        n, step = t, 1
        while comb(n + step, t) <= remaining:
            n += step
            step *= 2
        # C(n, t) <= remaining < C(n + step, t)
        while step > 1:
            step //= 2
            if comb(n + step, t) <= remaining:
                n += step
        terms.append((n, t))
        remaining -= comb(n, t)
        t -= 1
    return MacaulayDecomposition(value, position, tuple(terms))


def pseudopower(value: int, position: int) -> int:
    """Upper bound for the next entry of an M-vector after ``value``."""
    rep = macaulay_rep(value, position)
    return sum(comb(n + 1, t + 1) for n, t in rep.terms)


class MVectorCheck(NamedTuple):
    ok: bool
    violation_index: int | None


def is_m_vector(seq: Sequence[int]) -> MVectorCheck:
    """Test g_0 = 1, nonnegativity, and g_{i+1} <= g_i^<i> for i >= 1."""
    entries = list(seq)
    if not entries or entries[0] != 1:
        return MVectorCheck(False, 0)
    for i, value in enumerate(entries):
        if value < 0:
            return MVectorCheck(False, i)
    for i in range(2, len(entries)):
        if entries[i] > pseudopower(entries[i - 1], i - 1):
            return MVectorCheck(False, i)
    return MVectorCheck(True, None)


def check_g_theorem_conditions(h: HVector) -> VerificationReport:
    """Symmetry, h_0 = 1, and the M-vector condition on the g prefix."""
    if h.kind != "simplicial":
        raise ValueError("g-theorem conditions apply to simplicial h-vectors")
    rank = len(h.entries) - 1
    pre = [Precondition("simplicial h-vector", True, f"rank {rank}")]
    checks = [Check("h[0] == 1", h.h(0), 1)]
    for i in range(rank + 1):
        checks.append(Check(f"symmetry h[{i}] == h[{rank - i}]", h.h(i), h.h(rank - i)))
    prefix = [1] + [h.h(i) - h.h(i - 1) for i in range(1, rank // 2 + 1)]
    verdict = is_m_vector(prefix)
    context = f"g prefix {tuple(prefix)}"
    if verdict.violation_index is not None:
        context += f", violation at index {verdict.violation_index}"
    checks.append(Check("g prefix is an M-vector", 0 if verdict.ok else 1, 0, context=context))
    return make_report("g-theorem-conditions", pre, checks)
