"""Enumerative vectors of complexes: f, h, short and long cubical h, g.

All transforms are exact integer computations derived from the defining
polynomial identities; no floating point is involved.  Simplicial and
cubical conventions are kept apart by a ``kind`` tag and mixing them is an
error, not a silent reinterpretation.
"""

from __future__ import annotations

from math import comb

from ._record import _Record

# ``Complex`` and ``CubicalComplex`` in annotations are those of ``complexes``,
# which imports this module.

__all__ = [
    "FVector",
    "HVector",
    "GVector",
    "f_vector",
    "reduced_euler",
    "h_simplicial",
    "f_from_h_simplicial",
    "h_short_cubical_from_f",
    "h_short_cubical_from_links",
    "h_long_cubical",
    "g_vector",
]


def _neg_pow(m: int) -> int:
    """(-1)**m for any integer m, the empty-face exponent -1 included."""
    return 1 if m % 2 == 0 else -1


class _Vector(_Record):
    """A vector record: its convention tag, the dimension it refers to and
    its entries, read as 0 beyond both ends.  Records of different classes
    never compare equal."""

    kind: str
    dim: int
    entries: tuple[int, ...]

    def _entry(self, pos: int) -> int:
        return self.entries[pos] if 0 <= pos < len(self.entries) else 0


class FVector(_Vector):
    """Face counts, kind "simplicial" with entries from f_{-1} or "cubical"
    with entries from f_0."""

    def f(self, i: int) -> int:
        if self.kind == "cubical":
            return 1 if i == -1 else self._entry(i)
        return self._entry(i + 1)


class HVector(_Vector):
    """h-vector with its convention tag and the dimension it refers to.

    simplicial: entries h_0 .. h_{dim+1} (dim may be an ambient dimension
    when a lower dimensional complex is padded into a larger rank).
    short_cubical: entries h_0 .. h_dim.  long_cubical: h_0 .. h_{dim+1}.
    """

    h = _Vector._entry


class GVector(_Vector):
    """Consecutive h-differences, g_0 = h_0; kind "simplicial", "cubical" or
    "short_cubical"."""

    g = _Vector._entry


def f_vector(C: Complex) -> FVector:
    """The face counts of ``C``, cached on it."""
    return C._f_vector


def reduced_euler(x) -> int:
    """Alternating face-count sum including the empty face; a complex's is cached on it."""
    if not isinstance(x, FVector):
        return x._reduced_euler
    return sum(_neg_pow(i) * x.f(i) for i in range(-1, x.dim + 1))


def _h_transform(a: list[int]) -> tuple[int, ...]:
    """Coefficients of sum_i a_i t^i (1-t)^{r-i} for r = len(a) - 1."""
    r = len(a) - 1
    return tuple(
        sum(_neg_pow(j - i) * comb(r - i, j - i) * a[i] for i in range(j + 1))
        for j in range(r + 1)
    )


def h_simplicial(f: FVector, rank: int | None = None) -> HVector:
    """Simplicial h-vector from sum_i f_{i-1} t^i (1-t)^{rank-i}.

    ``rank`` defaults to dim+1 and may exceed it to treat the complex as
    sitting inside a larger ambient dimension (used for vertex links of
    non-pure complexes, where all links share the ambient rank).
    """
    if f.kind != "simplicial":
        raise ValueError("h_simplicial needs a simplicial f-vector")
    if rank is None:
        rank = f.dim + 1
    if rank < f.dim + 1:
        raise ValueError(f"rank {rank} is below the complex dimension {f.dim}")
    return HVector("simplicial", rank - 1, _h_transform([f.f(i - 1) for i in range(rank + 1)]))


def f_from_h_simplicial(h: HVector) -> FVector:
    """Inverse of :func:`h_simplicial` at the same rank."""
    if h.kind != "simplicial":
        raise ValueError("f_from_h_simplicial needs a simplicial h-vector")
    rank = h.dim + 1
    entries = tuple(
        sum(comb(rank - j, i - j) * h.h(j) for j in range(i + 1))
        for i in range(rank + 1)
    )
    return FVector("simplicial", h.dim, entries)


def h_short_cubical_from_f(f: FVector) -> HVector:
    """Short cubical h-vector from sum_i f_i (2t)^i (1-t)^{d-i}."""
    if f.kind != "cubical":
        raise ValueError("h_short_cubical_from_f needs a cubical f-vector")
    d = f.dim
    if d < 0:
        raise ValueError("short cubical h-vector needs dimension >= 0")
    return HVector("short_cubical", d, _h_transform([(1 << i) * f.f(i) for i in range(d + 1)]))


def h_short_cubical_from_links(K: CubicalComplex) -> HVector:
    """Short cubical h-vector as the sum of vertex-link simplicial h-vectors.

    Independent of :func:`h_short_cubical_from_f`: link face counts are read
    off the vertex coface counts, and every link is taken at ambient rank d,
    which keeps the identity valid on non-pure complexes; ``K`` caches the sum.
    """
    if K.dim < 0:
        raise ValueError("short cubical h-vector needs dimension >= 0")
    return K._h_short_links


def h_long_cubical(hsc: HVector) -> HVector:
    """Long cubical h-vector from the short one: h_0 = 2^d and h_{i+1} = h^{sc}_i - h_i."""
    if hsc.kind != "short_cubical":
        raise ValueError("h_long_cubical needs a short cubical h-vector")
    d = hsc.dim
    entries = [1 << d]
    for i in range(d + 1):
        entries.append(hsc.h(i) - entries[i])
    return HVector("long_cubical", d, tuple(entries))


_G_KIND = {"simplicial": "simplicial", "long_cubical": "cubical", "short_cubical": "short_cubical"}


def g_vector(h: HVector, upto: int | None = None) -> GVector:
    """g_i = h_i - h_{i-1} for i = 0..upto; entries beyond the h-vector are 0."""
    if upto is None:
        upto = len(h.entries) - 1
    entries = tuple(h.h(i) - h.h(i - 1) for i in range(upto + 1))
    return GVector(_G_KIND[h.kind], h.dim, entries)
