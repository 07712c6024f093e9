"""Exact verification of enumerative identities.

Verifiers accept either a bare complex or a generated complex carrying
topology metadata; stated hypotheses (sphere or ball flags, parity of the
dimension, Euler conditions, per-vertex premises) become preconditions of
the report.  Checks always store both compared sides exactly.  The facts
gates and checks share are cached on the complex, so each is computed once
however many verifiers run, and a suite run evaluates each distinct gate
once: its verifiers share the frozen precondition records.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Callable, NamedTuple

from ._record import _Record
from .generators import GeneratedComplex, as_generated
from .macaulay import pseudopower
from .report import Check, Precondition, make_report, VerificationReport
from .vectors import (
    FVector,
    HVector,
    f_vector,
    g_vector,
    h_long_cubical,
    h_short_cubical_from_f,
    h_short_cubical_from_links,
    h_simplicial,
    reduced_euler,
)
from .vectors import _neg_pow


Gate = Callable[[GeneratedComplex], Precondition]


class Advisory(NamedTuple):
    """A gate whose unmet precondition is recorded but does not stop the checks."""

    gate: Gate


# ------------------------------------------------------------------ the gates


# The gate kinds: a test on one quantity of the complex, shown as the detail.
def _on_dim(description: str, test: Callable[[int], bool]) -> Gate:
    return lambda gc: Precondition(description, test(gc.complex.dim), f"dim {gc.complex.dim}")


def _on_tag(description: str, test: Callable[[str], bool]) -> Gate:
    return lambda gc: Precondition(description, test(gc.topology), f"topology {gc.topology}")


def _on_flag(description: str, test: Callable[[GeneratedComplex], bool]) -> Gate:
    return lambda gc: Precondition(description, test(gc))


def _on_euler(description: str, test: Callable[[object], bool]) -> Gate:
    return lambda gc: Precondition(
        description, test(gc.complex), f"reduced Euler {reduced_euler(gc.complex)}"
    )


def _on_boundary(description: str, test: Callable[[object], bool]) -> Gate:
    return lambda gc: Precondition(
        description, test(gc.complex), f"boundary dim {gc.complex.boundary.dim}"
    )


# One gate object per argument, so that a suite run meets it once.
@lru_cache(maxsize=None)
def _dim_at_least(n: int) -> Gate:
    return _on_dim(f"dimension >= {n}", lambda d: d >= n)


@lru_cache(maxsize=None)
def _of_kind(kind: str) -> Gate:
    return _on_flag(f"{kind} complex", lambda gc: gc.complex.kind == kind)


_nonempty = _on_dim("nonempty", lambda d: d >= 0)
_dim_four = _on_dim("dimension 4", lambda d: d == 4)
_even_dim = _on_dim("even dimension >= 2", lambda d: d >= 2 and d % 2 == 0)
_sphere = _on_tag("flagged as a sphere", lambda t: t == "sphere")
_ball = _on_tag("flagged as a ball", lambda t: t == "ball")
_with_boundary = _on_tag(
    "flagged as a manifold with boundary", lambda t: t in ("ball", "manifold-with-boundary")
)
_pure = _on_flag("pure", lambda gc: gc.complex.pure)
_pseudomanifold = _on_flag("closed pseudomanifold", lambda gc: gc.complex.pseudomanifold)
_polytopal = _on_flag("flagged polytopal", lambda gc: gc.polytopal)
_semi_eulerian = _on_euler("semi-Eulerian", lambda C: C.semi_eulerian)
_eulerian = _on_euler("Eulerian", lambda C: C.eulerian)
_reduced_euler_zero = _on_euler("reduced Euler 0", lambda C: reduced_euler(C) == 0)
_nonempty_boundary = _on_boundary("nonempty boundary", lambda C: C.boundary.dim >= 0)
_nonempty_boundary_unless_point = _on_boundary(
    "nonempty boundary (a point may have none)", lambda C: C.boundary.dim >= 0 or C.dim == 0
)


def _ridges_in_one_or_two(gc: GeneratedComplex) -> Precondition:
    degrees = set(gc.complex._ridges[0].values())  # the degrees only, by closure key
    return Precondition(
        "every ridge lies in one or two facets", degrees <= {1, 2}, f"degrees {sorted(degrees)}"
    )


def _flat_vertex_links(gc: GeneratedComplex) -> Precondition:
    C = gc.complex
    d = C.dim
    uneven = [(v, h.entries) for v, h in C.link_h_vectors.items() if len(set(h.entries[1:d])) > 1]
    return Precondition(
        "every vertex link has h_1 = ... = h_{d-1}",
        not uneven,
        "" if not uneven else f"vertex {uneven[0][0]} has link h {uneven[0][1]}",
    )


def _link_g2_at_most_2(gc: GeneratedComplex) -> Precondition:
    link_g = gc.complex.link_g_vectors
    worst = max(link_g, key=lambda v: link_g[v].g(2))
    return Precondition(
        "every vertex link has g_2 <= 2",
        link_g[worst].g(2) <= 2,
        f"max g_2(lk v) = {link_g[worst].g(2)} at vertex {worst}",
    )


def _small_vertex_links(gc: GeneratedComplex) -> Precondition:
    k = gc.complex.dim // 2
    counts = gc.complex.vertex_coface_counts
    fat = [v for v, n in counts.items() if n[1] not in (2 * k + 1, 2 * k + 2)]
    return Precondition(
        "every vertex link has 2k+1 or 2k+2 vertices",
        not fat,
        "" if not fat else f"vertex {fat[0]} has {counts[fat[0]][1]} link vertices",
    )


_NONEMPTY_PURE = ((_nonempty,), (_pure,))
_EULERIAN_SPHERE = _NONEMPTY_PURE + ((_sphere, _even_dim), (_eulerian,))
_EULERIAN_POLYTOPAL_SPHERE = _NONEMPTY_PURE + ((_sphere, _polytopal, _even_dim), (_eulerian,))


# --------------------------------------------------------------- the registry


class Verifier(_Record):
    """One registry entry: gate stages run in order, then the checks.

    The report stops after the first stage with an unmet precondition that
    is not advisory; the checks run only when every stage lets them.
    """

    name: str
    kind: str
    suite: str
    stages: tuple[tuple[Gate | Advisory, ...], ...]
    checks: Callable[[object], list[Check]]

    def __call__(self, x) -> VerificationReport:
        return self._run(as_generated(x), {})

    def _run(self, gc: GeneratedComplex, met: dict[Gate, Precondition]) -> VerificationReport:
        """The report on ``gc``, each gate's record read from ``met`` or evaluated into it."""
        pre = []
        for stage in self.stages:
            blocked = False
            for gate in stage:
                advisory = isinstance(gate, Advisory)
                test = gate.gate if advisory else gate
                p = met[test] if test in met else met.setdefault(test, test(gc))
                pre.append(p)
                blocked = blocked or not (p.ok or advisory)
            if blocked:
                return make_report(self.name, pre)
        return make_report(self.name, pre, self.checks(gc.complex))


# Filled by @_verifier in definition order; the suite tables derive from it.
REGISTRY: list[Verifier] = []


def _verifier(name: str, suite: str, *stages, kind: str = "cubical"):
    """Register the decorated checks function under ``name`` in ``suite``."""

    def register(checks) -> Verifier:
        entry = Verifier(name, kind, suite, ((_of_kind(kind),),) + stages, checks)
        REGISTRY.append(entry)
        return entry

    return register


# ------------------------------------------------------------ the verifiers


@_verifier("adin-dehn-sommerville", "adin-ds", *_NONEMPTY_PURE, (_semi_eulerian,))
def verify_adin_ds(C) -> list[Check]:
    """Dehn-Sommerville for closed complexes: paired long cubical h-entries
    differ by a multiple of the Euler characteristic defect, and the short
    cubical h-vector is symmetric."""
    d = C.dim
    hsc, hc = C.h_short, C.h_long
    defect = reduced_euler(C) - _neg_pow(d)
    checks = [
        Check(f"long i={i}", hc.h(d + 1 - i) - hc.h(i), _neg_pow(i) * (-2) ** d * defect)
        for i in range(d + 2)
    ]
    checks += [
        Check(f"short-symmetry i={i}", hsc.h(i), hsc.h(d - i)) for i in range(d + 1)
    ]
    return checks


@_verifier("vertex-pair-bound", "lbt", (_dim_at_least(1),))
def verify_vertex_pair_bound(C) -> list[Check]:
    """The weighted face count sum_i 2^i f_i is at most f_0^2, with the
    refined form sum_{i>=1} 2^{i-1} f_i <= C(f_0, 2)."""
    f = f_vector(C)
    d = C.dim
    total = sum((1 << i) * f.f(i) for i in range(d + 1))
    positive = sum((1 << (i - 1)) * f.f(i) for i in range(1, d + 1))
    return [
        Check("sum 2^i f_i <= f_0^2", total, f.f(0) ** 2, "<="),
        Check("sum_{i>=1} 2^(i-1) f_i <= C(f_0, 2)", positive, comb(f.f(0), 2), "<="),
    ]


_CLOSED = _NONEMPTY_PURE + ((_pseudomanifold, _dim_at_least(2)),)


@_verifier("vertex-count-lower-bound", "lbt", *_CLOSED)
def verify_vertex_lower_bound(C) -> list[Check]:
    """Closed pseudomanifolds of dimension >= 2 need at least 2^(d+1)
    vertices; the proof chain and its equality case are checked too."""
    d = C.dim
    f = f_vector(C)
    hc = C.h_long
    f0 = f.f(0)
    total = sum((1 << i) * f.f(i) for i in range(d + 1))
    floor = f0 * ((1 << (d + 1)) - 1)
    checks = [
        Check("f_0 >= 2^(d+1)", f0, 1 << (d + 1), ">="),
        Check("h[c][1] >= h[c][0]", hc.h(1), hc.h(0), ">="),
        Check("sum 2^i f_i >= f_0 (2^(d+1) - 1)", total, floor, ">="),
    ]
    degrees = [counts[d] for counts in C.vertex_coface_counts.values()]
    if total == floor:
        off = sum(1 for n in degrees if n != d + 1)
        checks.append(Check("equality forces facet degree d+1", off, 0, "=="))
    if all(n == d + 1 for n in degrees):
        checks.append(Check("facet degree d+1 forces equality", total, floor, "=="))
        checks.append(Check("2^d divides (d+1) f_0", ((d + 1) * f0) % (1 << d), 0, "=="))
    return checks


@_verifier("face-count-lower-bounds", "face-bounds", *_CLOSED)
def verify_face_lower_bounds(C) -> list[Check]:
    """Per-dimension face count bounds f_i >= C(d+1, i) 2^(d+1-i) on closed
    pseudomanifolds, through the per-vertex link bounds."""
    d = C.dim
    f = f_vector(C)
    checks = [
        Check(f"f[{i}]", f.f(i), comb(d + 1, i) * (1 << (d + 1 - i)), ">=")
        for i in range(d + 1)
    ]
    counts = C.vertex_coface_counts
    for i in range(1, d + 1):
        worst = min(counts, key=lambda v: counts[v][i])
        checks.append(
            Check(
                f"min_v f[{i - 1}](lk v)",
                counts[worst][i],
                comb(d + 1, i),
                ">=",
                context=f"vertex {worst}",
            )
        )
    return checks


@_verifier("h-vector-identities", "h-identities", *_NONEMPTY_PURE)
def verify_h_vector_identities(C) -> list[Check]:
    """Unconditional identities tying f, the two short cubical h routes, the
    long cubical h-vector and the per-vertex double counting together."""
    d = C.dim
    f = f_vector(C)
    hsc, hc = C.h_short, C.h_long
    hsc_links = h_short_cubical_from_links(C)
    chi = reduced_euler(f)
    checks = [
        Check("h[sc][0] == f_0", hsc.h(0), f.f(0)),
        Check("sum h[sc] == 2^d f_d", sum(hsc.entries), (1 << d) * f.f(d)),
        Check("h[c][1] == f_0 - 2^d", hc.h(1), f.f(0) - (1 << d)),
        Check("h[c][d+1] == (-2)^d chi", hc.h(d + 1), (-2) ** d * chi),
    ]
    for j in range(d + 1):
        checks.append(Check(f"link-sum j={j}", hsc_links.h(j), hsc.h(j)))
    for i in range(1, d + 1):
        checks.append(
            Check(
                f"difference i={i}",
                hc.h(i + 1) - hc.h(i - 1),
                hsc.h(i) - hsc.h(i - 1),
            )
        )
    for i in range(d + 1):
        closed = _neg_pow(i + 1) * hc.h(0) + sum(
            _neg_pow(i - j) * hsc.h(j) for j in range(i + 1)
        )
        checks.append(Check(f"closed-form i={i}", hc.h(i + 1), closed))
    counts = C.vertex_coface_counts
    for i in range(1, d + 1):
        checks.append(
            Check(
                f"double-count i={i}",
                (1 << i) * f.f(i),
                sum(n[i] for n in counts.values()),
            )
        )
    return checks


@_verifier(
    "stacked-link-plateau", "glbc",
    *_NONEMPTY_PURE, (_even_dim,), (_eulerian,), (_flat_vertex_links,),
)
def verify_stacked_link_plateau(C) -> list[Check]:
    """If every vertex link of an Eulerian complex of even dimension has a
    constant inner h-vector, the long cubical h-vector is constant on
    indices 1..d."""
    hc = C.h_long
    return [
        Check(f"h[c][{i}] == h[c][{i + 1}]", hc.h(i), hc.h(i + 1)) for i in range(1, C.dim)
    ]


@_verifier("four-sphere-glbc", "glbc", *_NONEMPTY_PURE, (_sphere, _dim_four), (_eulerian,))
def verify_four_sphere_glbc(C) -> list[Check]:
    """g_2 of the long cubical h-vector of a 4-dimensional sphere is
    nonnegative, witnessed by the vertex-link rigidity sum."""
    hsc, hc = C.h_short, C.h_long
    link_sum = sum(h.h(2) - h.h(1) for h in C.link_h_vectors.values())
    g2c = hc.h(2) - hc.h(1)
    return [
        Check("g[c][2] >= 0", g2c, 0, ">="),
        Check("g[c][2] == g[sc][2]", g2c, hsc.h(2) - hsc.h(1)),
        Check("sum_v (h_2 - h_1)(lk v) >= 0", link_sum, 0, ">="),
        Check("g[c][2] == link sum", g2c, link_sum),
    ]


@_verifier("middle-g-nonnegative", "glbc", *_EULERIAN_POLYTOPAL_SPHERE)
def verify_middle_glbc(C) -> list[Check]:
    """The middle short cubical g-entry of a polytopal sphere of even
    dimension 2k is nonnegative, hence so is g[c][k]."""
    k = C.dim // 2
    hsc, hc = C.h_short, C.h_long
    return [
        Check("h[sc][k] >= h[sc][k-1]", hsc.h(k), hsc.h(k - 1), ">="),
        Check("g[c][k] >= 0", hc.h(k) - hc.h(k - 1), 0, ">="),
        Check("h[c][k+1] == h[c][k]", hc.h(k + 1), hc.h(k)),
    ]


@_verifier("alternating-g-sum", "glbc", *_EULERIAN_SPHERE)
def verify_alternating_g_sum(C) -> list[Check]:
    """On spheres of dimension 2k the long cubical g-entries telescope into
    alternating sums of short cubical g-entries."""
    k = C.dim // 2
    hc = C.h_long
    gsc = g_vector(C.h_short)
    checks = []
    for i in range(1, k + 1):
        rhs = sum(_neg_pow(j - i) * gsc.g(j) for j in range(i, k + 1))
        checks.append(Check(f"i={i}", hc.h(i) - hc.h(i - 1), rhs))
    return checks


def _nondecreasing_to_middle(C) -> list[Check]:
    k = C.dim // 2
    hc = C.h_long
    return [
        Check(f"h[c][{i}] >= h[c][{i - 1}]", hc.h(i), hc.h(i - 1), ">=")
        for i in range(1, k + 1)
    ]


def _link_g_cascade(C, first: int) -> list[Check]:
    """Per-vertex decrease and pseudopower growth of link g-entries from
    index ``first`` up to the middle index k."""
    links = C.link_g_vectors.values()
    checks = []
    for i in range(first, C.dim // 2):
        drop = sum(1 for g in links if g.g(i + 1) > g.g(i))
        checks.append(Check(f"g[{i + 1}] <= g[{i}] at every vertex", drop, 0, "=="))
        cascade = sum(1 for g in links if g.g(i + 1) > pseudopower(max(g.g(i), 0), i))
        checks.append(Check(f"g[{i + 1}] <= g[{i}]^<{i}> at every vertex", cascade, 0, "=="))
    return checks


@_verifier("small-g2-glbc", "glbc", *_EULERIAN_POLYTOPAL_SPHERE, (_link_g2_at_most_2,))
def verify_small_g2_glbc(C) -> list[Check]:
    """Polytopal spheres of dimension 2k whose vertex links all satisfy
    g_2 <= 2 have a nondecreasing long cubical h-vector up to the middle;
    the pseudopower cascade that drives the proof is checked per vertex."""
    k = C.dim // 2
    link_g = C.link_g_vectors
    checks = _nondecreasing_to_middle(C)
    for i in range(2, k + 1):
        top = max(link_g, key=lambda v: link_g[v].g(i))
        checks.append(
            Check(f"max_v g[{i}](lk v) <= 2", link_g[top].g(i), 2, "<=", context=f"vertex {top}")
        )
    checks += _link_g_cascade(C, 2)
    if k >= 2:
        low = min(link_g, key=lambda v: link_g[v].g(k))
        checks.append(
            Check("min_v g[k](lk v) >= 0", link_g[low].g(k), 0, ">=", context=f"vertex {low}")
        )
    return checks


@_verifier("small-link-glbc", "glbc", *_EULERIAN_SPHERE, (_small_vertex_links,))
def verify_small_link_glbc(C) -> list[Check]:
    """Spheres of dimension 2k whose vertex links have at most 2k+2 vertices
    satisfy the same monotonicity of the long cubical h-vector."""
    link_g = C.link_g_vectors
    top = max(link_g, key=lambda v: link_g[v].g(1))
    checks = [
        Check("max_v g[1](lk v) <= 1", link_g[top].g(1), 1, "<=", context=f"vertex {top}")
    ]
    return checks + _nondecreasing_to_middle(C) + _link_g_cascade(C, 1)


@_verifier(
    "cubical-boundary-ds", "boundary-ds",
    *_NONEMPTY_PURE, (_dim_at_least(1),),
    (_ridges_in_one_or_two, Advisory(_with_boundary), Advisory(_nonempty_boundary)),
)
def verify_cubical_boundary_ds(C) -> list[Check]:
    """Dehn-Sommerville with a boundary correction for cubical manifolds,
    plus the interior-face reformulation: the interior short h-vector equals
    the reversed short h-vector and h^{sc} minus the boundary g^{sc}."""
    d = C.dim
    boundary = C.boundary
    chi = reduced_euler(C)
    hsc, hc = C.h_short, C.h_long
    # A nonempty boundary of a pure d-complex is closed up from (d-1)-ridges.
    if boundary.dim >= 0:
        hsc_b, hc_b = boundary.h_short, boundary.h_long
    else:
        hsc_b = HVector("short_cubical", d - 1, (0,) * d)
        hc_b = h_long_cubical(hsc_b)
    checks = []
    for j in range(1, d + 1):
        rhs = _neg_pow(j) * (-2) ** d * chi - (hc_b.h(j) - hc_b.h(j - 1))
        checks.append(Check(f"j={j}", hc.h(d + 1 - j) - hc.h(j), rhs))
    # The boundary is a subcomplex, so its faces are the non-interior ones.
    f, f_b = f_vector(C), f_vector(boundary)
    interior = tuple(f.f(i) - f_b.f(i) for i in range(d + 1))
    hsc_interior = h_short_cubical_from_f(FVector("cubical", d, interior))
    for j in range(d + 1):
        checks.append(Check(f"interior-reversal j={j}", hsc_interior.h(j), hsc.h(d - j)))
    for j in range(d + 1):
        rhs = hsc.h(j) - (hsc_b.h(j) - hsc_b.h(j - 1))
        checks.append(Check(f"interior-relation j={j}", hsc_interior.h(j), rhs))
    return checks


@_verifier(
    "cubical-ball-ds", "boundary-ds",
    *_NONEMPTY_PURE, (_ball, _dim_at_least(1)), (_reduced_euler_zero, _nonempty_boundary),
)
def verify_cubical_ball_ds(C) -> list[Check]:
    """For cubical balls the Dehn-Sommerville defect of the long h-vector is
    exactly minus the boundary long g-vector."""
    d = C.dim
    hc, hc_b = C.h_long, C.boundary.h_long
    return [
        Check(f"i={i}", hc.h(d + 1 - i) - hc.h(i), -(hc_b.h(i) - hc_b.h(i - 1)))
        for i in range(1, d + 1)
    ]


@_verifier(
    "simplicial-boundary-ds", "ns-ds",
    *_NONEMPTY_PURE,
    (_ridges_in_one_or_two, Advisory(_with_boundary), Advisory(_nonempty_boundary_unless_point)),
    kind="simplicial",
)
def verify_simplicial_boundary_ds(C) -> list[Check]:
    """Dehn-Sommerville with a boundary correction for simplicial manifolds:
    h_{D-i} - h_i equals C(D, i) (-1)^(D-i-1) chi minus g_i of the boundary,
    the boundary h-vector taken at ambient rank D-1 (all-zero face counts
    when the boundary is empty)."""
    D = C.dim + 1
    h = h_simplicial(f_vector(C))
    hb = h_simplicial(f_vector(C.boundary), rank=D - 1)
    chi = reduced_euler(C)
    checks = []
    for i in range(D + 1):
        rhs = comb(D, i) * _neg_pow(D - i - 1) * chi - (hb.h(i) - hb.h(i - 1))
        checks.append(Check(f"i={i}", h.h(D - i) - h.h(i), rhs))
    return checks


CUBICAL_VERIFIERS = tuple(v for v in REGISTRY if v.kind == "cubical")
SIMPLICIAL_VERIFIERS = tuple(v for v in REGISTRY if v.kind == "simplicial")

SUITES: dict[str, tuple[str, tuple]] = {
    suite: (kind, tuple(v for v in REGISTRY if v.suite == suite))
    for suite, kind in dict.fromkeys((v.suite, v.kind) for v in REGISTRY)
}


def run_suite(suite: str, x) -> list[VerificationReport]:
    """Run a named verifier suite; "all" runs everything matching the kind.
    The verifiers share one record per gate, evaluated on first use."""
    gc = as_generated(x)
    kind, met = gc.complex.kind, {}
    if suite == "all":
        return [v._run(gc, met) for v in REGISTRY if v.kind == kind]
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    suite_kind, fns = SUITES[suite]
    if suite_kind != kind:
        raise ValueError(f"suite {suite!r} applies to {suite_kind} complexes, got {kind}")
    return [fn._run(gc, met) for fn in fns]


# The verifiers are exported under the names of their checks functions.
__all__ = [
    *(v.checks.__name__ for v in REGISTRY),
    "CUBICAL_VERIFIERS", "SIMPLICIAL_VERIFIERS", "SUITES", "run_suite",
]
