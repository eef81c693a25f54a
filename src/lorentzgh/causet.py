"""Causal sets as finite Lorentzian pre-length spaces.

ell(x, y) counts relation steps along the longest chain from x to y (so
ell(x, x) = 0 and unrelated pairs sit at -inf); sprinkling samples product
spacetimes uniformly and pulls back the causal order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from .core import (FiniteLorentzSpace, build_space, check_labels, check_seed, integer_values,
                   point_indices)
from .corr import min_distortion
from .errors import CycleDetected, EmptyRegion, ShapeMismatch
from .extended import NEG_INF
from .geometry import Point, ProductGenerator, _ell_matrix, _in_range, point_label


@dataclass(frozen=True)
class CausalSet:
    """Elements plus a cover (Hasse-style) relation; order is its transitive closure."""

    elements: tuple[str, ...]
    covers: tuple[tuple[int, int], ...]  # sorted, unique, in range, loop-free: build_causet checks
    # the least topological order, derived once; the constructor raises CycleDetected on a cycle
    topological_order: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "topological_order", tuple(_topological_order(self)))

    @property
    def n(self) -> int:
        return len(self.elements)


def build_causet(elements: Sequence[str], covers: Sequence[tuple[int, int]]) -> CausalSet:
    check_labels(elements)
    point_indices(len(elements), [v for pair in covers for v in pair], "cover endpoints")
    for a, b in covers:
        if a == b:
            raise CycleDetected(f"self-loop at element {a}")
    return CausalSet(tuple(elements), tuple(sorted(set((int(a), int(b)) for a, b in covers))))


def _topological_order(c: CausalSet) -> list[int]:
    indeg = [0] * c.n
    out: dict[int, list[int]] = {i: [] for i in range(c.n)}
    for a, b in c.covers:
        out[a].append(b)
        indeg[b] += 1
    queue = sorted(i for i in range(c.n) if indeg[i] == 0)  # a sorted list is a heap
    order = []
    while queue:
        v = heappop(queue)
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heappush(queue, w)
    if len(order) != c.n:
        raise CycleDetected("cover relation contains a cycle")
    return order


def chain_ell(c: CausalSet) -> FiniteLorentzSpace:
    """Longest-chain step counts by dynamic programming over a topological order.

    One update per vertex v: every chain into v ends with a cover edge from
    one of its parents, so column v takes the largest parent column plus one
    step (-inf + 1 stays -inf). The counts are small integers, exact in
    float64, so the order of the maxima does not matter. Integer
    longest-path counts satisfy the reverse triangle inequality exactly, so
    the matrix needs no axiom check.
    """
    n = c.n
    parents: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in c.covers:
        parents[b].append(a)
    D = np.full((n, n), NEG_INF)
    np.fill_diagonal(D, 0.0)
    for v in c.topological_order:
        if parents[v]:
            D[:, v] = np.maximum(D[:, v], D[:, parents[v]].max(axis=1) + 1.0)
    return FiniteLorentzSpace(c.elements, D)


def order_relation(c: CausalSet) -> np.ndarray:
    """Reflexive reachability matrix of the causet order."""
    return chain_ell(c).causal.copy()


def _transitive_reduction(strict: np.ndarray) -> list[tuple[int, int]]:
    """Cover pairs of a strict order: related pairs with nothing in between.

    Two-step paths are counted by a float32 matmul: a sum of non-negative
    terms is positive exactly when some path exists, whereas a uint8 count
    wraps at 256 intermediates and would report such pairs as covers.
    """
    s = strict.astype(np.float32)
    two_step = (s @ s) > 0
    a, b = np.nonzero(strict & ~two_step)
    return list(zip(a.tolist(), b.tolist()))


def _order_causet(labels: Sequence[str], causal: np.ndarray) -> CausalSet:
    """The causet whose covers are the Hasse covers of a reflexive causal relation."""
    strict = causal.copy()
    np.fill_diagonal(strict, False)
    return CausalSet(elements=tuple(labels), covers=tuple(_transitive_reduction(strict)))


def _sprinkle(gen: ProductGenerator, region: tuple[float, float], count: int,
              seed: int) -> tuple[list[Point], np.ndarray, CausalSet]:
    """The seeded draw of `sprinkle`: its points, their ell matrix and the causet of their order."""
    lo, hi = region
    if not (lo < hi and _in_range(gen, lo, hi)):
        raise EmptyRegion(f"region {region} outside generator range {gen.t_range}")
    if count < 1:
        raise EmptyRegion("count must be >= 1")
    rng = np.random.default_rng(check_seed(seed))
    ts = np.sort(rng.uniform(lo, hi, size=count))
    sites = rng.integers(0, gen.fiber.n, size=count)
    points: list[Point] = [(float(t), int(s)) for t, s in zip(ts, sites)]
    ell = _ell_matrix(gen, points)
    labels = [f"e{k}|{point_label(gen, p)}" for k, p in enumerate(points)]
    return points, ell, _order_causet(labels, np.isfinite(ell))


def sprinkle(gen: ProductGenerator, region: tuple[float, float], count: int,
             seed: int):
    """Uniform seeded sample of the product region with the induced order.

    Times are uniform in [t-, t+], fiber sites uniform over the fiber; the
    returned site map realizes each element as its sample point.
    """
    points, _, causet = _sprinkle(gen, region, count, seed)
    return causet, dict(enumerate(points))


def faithful_embed_check(c: CausalSet, space: FiniteLorentzSpace,
                         mapping: dict[int, int], one_directional: bool = False) -> dict:
    """Order preservation of element -> point maps.

    Default checks both directions (x <= y iff phi(x) <= phi(y));
    one_directional keeps only the forward implication, the literal reading.
    """
    missing = [i for i in range(c.n) if mapping.get(i) is None]
    if missing:
        raise ShapeMismatch(f"elements {missing} have no image")
    phi = integer_values([mapping[i] for i in range(c.n)], "element images")
    point_indices(space.n, phi, "element images")
    rel = order_relation(c)
    # both relations are reflexive, so the diagonal never yields a witness
    image = space.causal[np.ix_(phi, phi)]
    forward = [(int(a), int(b)) for a, b in np.argwhere(rel & ~image)]
    reverse = [] if one_directional else \
        [(int(a), int(b)) for a, b in np.argwhere(image & ~rel)]
    faithful = not forward and not reverse
    return {"faithful": faithful,
            "witnesses": {"forward": forward, "reverse": reverse}}


def hauptvermutung_trial(gen_a: ProductGenerator, gen_b: ProductGenerator,
                         counts: Sequence[int], seed: int) -> dict:
    """Desk-scale evidence runs: sprinkle into A over the overlap of the two
    t_ranges, transport sites into B.

    Both generators must share the fiber label set so the site transport is
    the identity on (t, site). Reports, per count, the distortion between
    the two sampled-spacetime restrictions and between the chain-ell spaces;
    distortion tending to zero is evidence for isometry, a floor against.

    Each distinct matrix is built, validated and chained once. A's ell
    matrix gives both its order and its space; when B's matrix equals A's,
    B's space is A's, and when B's causal relation equals A's, B's chain
    space is A's. Both rules look at the data, not at the generators.
    """
    if gen_a.fiber.labels != gen_b.fiber.labels:
        raise ShapeMismatch("generators must share a fiber label set for site transport")
    region = (max(gen_a.t_range[0], gen_b.t_range[0]),
              min(gen_a.t_range[1], gen_b.t_range[1]))
    rows = []
    master = np.random.default_rng(check_seed(seed))
    for count in counts:
        sub_seed = int(master.integers(0, 2**63 - 1))
        points, ell_a, causet = _sprinkle(gen_a, region, count, sub_seed)
        space_a = build_space(causet.elements, ell_a)
        del ell_a
        ell_b = _ell_matrix(gen_b, points)
        space_b = space_a if np.array_equal(ell_b, space_a.ell) else \
            build_space(causet.elements, ell_b)
        del ell_b
        _, tau_dis = min_distortion(space_a, space_b, mode="heuristic", seed=sub_seed)

        # order induced by B on the same transported sites
        causet_b = None if np.array_equal(space_b.causal, space_a.causal) else \
            _order_causet(causet.elements, space_b.causal)
        del space_a, space_b
        chain_a = chain_ell(causet)
        chain_b = chain_a if causet_b is None else chain_ell(causet_b)
        _, chain_dis = min_distortion(chain_a, chain_b, mode="heuristic", seed=sub_seed)

        rows.append({"count": int(count), "seed": sub_seed,
                     "tau_distortion": float(tau_dis),
                     "chain_distortion": float(chain_dis)})
    return {"region": list(region), "rows": rows}
