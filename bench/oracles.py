"""Independent expected outputs; imports nothing from cubicomb.

Face counts come from closed forms in the input parameters, h-vectors from
their defining sums, and Macaulay decompositions from a bisection search
instead of the program's linear scan.  A disagreement marks the item as
failed work.
"""

from __future__ import annotations

from math import comb, prod


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _product(factors: list[list[int]]) -> list[int]:
    out = [1]
    for f in factors:
        out = poly_mul(out, f)
    return out


def torus_f(sides) -> tuple[int, ...]:
    """f_i = C(d, i) N for the cubical d-torus on N vertices."""
    d, n = len(sides), prod(sides)
    return tuple(comb(d, i) * n for i in range(d + 1))


def pile_f(sides) -> tuple[int, ...]:
    """Coefficients of prod_t (s_t + 1 + s_t x)."""
    return tuple(_product([[s + 1, s] for s in sides]))


def pile_boundary_f(sides) -> tuple[int, ...]:
    """All faces of the pile minus the interior ones, prod_t (s_t - 1 + s_t x)."""
    full = _product([[s + 1, s] for s in sides])
    interior = _product([[s - 1, s] for s in sides])
    return tuple(a - b for a, b in zip(full, interior))[:-1]


def stacked_ball_f(d: int, n: int) -> tuple[int, ...]:
    """f_i = C(d+1, i+1) + (n-1) C(d, i) for a stacked d-ball with n facets."""
    return tuple(comb(d + 1, i + 1) + (n - 1) * comb(d, i) for i in range(d + 1))


def f_from_h(h) -> tuple[int, ...]:
    """f_{i-1} = sum_j C(r-j, i-j) h_j at rank r = len(h) - 1, for i = 1..r."""
    r = len(h) - 1
    return tuple(sum(comb(r - j, i - j) * h[j] for j in range(i + 1)) for i in range(1, r + 1))


def h_short_cubical(f) -> tuple[int, ...]:
    """Coefficients of sum_i f_i (2t)^i (1-t)^(d-i)."""
    d = len(f) - 1
    total = [0] * (d + 1)
    for i, fi in enumerate(f):
        term = [fi << i]
        for _ in range(d - i):
            term = poly_mul(term, [1, -1])
        for k, c in enumerate(term):
            total[i + k] += c
    return tuple(total)


def h_long_cubical(f) -> tuple[int, ...]:
    """h_0 = 2^d and h_{i+1} = h^{sc}_i - h_i."""
    hsc = h_short_cubical(f)
    out = [1 << (len(f) - 1)]
    for x in hsc:
        out.append(x - out[-1])
    return tuple(out)


def macaulay_terms(value: int, position: int) -> tuple[tuple[int, int], ...]:
    """Greedy binomial decomposition, each top index found by bisection."""
    terms = []
    t = position
    while value > 0:
        lo, hi = t, t + 1
        while comb(hi, t) <= value:
            hi *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if comb(mid, t) <= value:
                lo = mid
            else:
                hi = mid
        terms.append((lo, t))
        value -= comb(lo, t)
        t -= 1
    return tuple(terms)


def pseudopower_oracle(value: int, position: int) -> int:
    return sum(comb(n + 1, t + 1) for n, t in macaulay_terms(value, position))


def m_vector_violation(seq) -> int | None:
    """Index of the first M-vector violation, None when there is none."""
    if not seq or seq[0] != 1:
        return 0
    for i, v in enumerate(seq):
        if v < 0:
            return i
    for i in range(2, len(seq)):
        if seq[i] > pseudopower_oracle(seq[i - 1], i - 1):
            return i
    return None


def intersecting_pairs(cells) -> int:
    """Pairs of distinct cells that share at least one vertex."""
    star: dict[int, list[int]] = {}
    for idx, cell in enumerate(cells):
        for v in cell:
            star.setdefault(v, []).append(idx)
    pairs = set()
    for members in star.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                pairs.add((members[a], members[b]))
    return len(pairs)
