import numpy as np
import pytest
from hypothesis import settings

from lorentzgh import build_space, chain_ell, build_causet
from lorentzgh.extended import NEG_INF

# derandomized: every run draws the same examples, so the suite is deterministic
settings.register_profile("seeded", derandomize=True, database=None, deadline=None)
settings.load_profile("seeded")


def chain_space(times, tol=1e-9):
    """Fully related chain: ell(i, j) = t_j - t_i for i <= j."""
    t = np.asarray(times, dtype=float)
    ell = t[None, :] - t[:, None]
    ell[ell < 0] = NEG_INF
    np.fill_diagonal(ell, 0.0)
    return build_space([f"p{i}" for i in range(len(t))], ell, tol=tol)


def random_chain(rng, n_min=3, n_max=9, span=5.0):
    n = int(rng.integers(n_min, n_max + 1))
    return chain_space(np.sort(rng.uniform(0, span, size=n)))


def layered_space(rng, layers=3, width=2, span=4.0):
    """Chain of layers; points within a layer are ell-duplicates of each other."""
    times = np.sort(rng.uniform(0, span, size=layers))
    t = np.repeat(times, width)
    n = len(t)
    ell = t[None, :] - t[:, None]
    ell[ell < 0] = NEG_INF
    np.fill_diagonal(ell, 0.0)
    # same-layer pairs are mutually related at 0 (duplicates)
    for a in range(n):
        for b in range(n):
            if a != b and t[a] == t[b]:
                ell[a, b] = 0.0
    return build_space([f"q{i}" for i in range(n)], ell)


def random_causet_space(rng, n_min=4, n_max=8, p=0.4):
    n = int(rng.integers(n_min, n_max + 1))
    covers = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    c = build_causet([f"e{i}" for i in range(n)], covers)
    return chain_ell(c)


def block_union(a, b):
    """a and b side by side, every cross entry NEG_INF."""
    n = a.n + b.n
    ell = np.full((n, n), NEG_INF)
    ell[:a.n, :a.n] = a.ell
    ell[a.n:, a.n:] = b.ell
    return build_space([f"a{i}" for i in range(a.n)] + [f"b{i}" for i in range(b.n)], ell)


def union_space(rng):
    """Two independent chains (cross relations all NEG_INF)."""
    return block_union(random_chain(rng, 2, 4), random_chain(rng, 2, 4))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
