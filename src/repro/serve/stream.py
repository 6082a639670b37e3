"""Seeded synthetic request streams for benchmarks and soak tests.

Real serving traffic is dominated by a small set of hot positions —
the empirical justification for a result cache — so the generator
draws trees from a finite pool under a zipf-like skew: the rank-``r``
tree is drawn with probability proportional to ``1 / r**s``.  With
``s = 0`` the stream is uniform (worst case for the cache); ``s``
around 1.1-1.5 models heavy-traffic skew.

Everything is derived from one ``numpy`` generator seeded explicitly,
so a stream is reproducible from ``(seed, knobs)`` alone.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..trees.generators import iid_boolean, iid_minmax_integers
from ..trees.uniform import UniformTree
from ..types import TreeKind
from .engines import ALGORITHMS
from .request import ConcreteTree, EvalRequest

__all__ = ["make_tree_pool", "synthetic_stream", "zipf_weights"]

#: Algorithms drawn per tree kind, in table order: the MIN/MAX family
#: for MIN/MAX trees, the Boolean-only engines for Boolean trees.
_MINMAX_FAMILY = tuple(
    a for a, spec in ALGORITHMS.items() if TreeKind.MINMAX in spec.kinds
)
_BOOLEAN_ONLY = tuple(a for a in ALGORITHMS if a not in _MINMAX_FAMILY)


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalised zipf(s) probabilities over ranks ``1..n``."""
    if n < 1:
        raise ValueError("need at least one rank")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-float(s))
    return weights / weights.sum()


def make_tree_pool(
    num_trees: int,
    *,
    seed: int,
    branching: int = 2,
    height: int = 4,
    minmax_fraction: float = 0.5,
) -> List[ConcreteTree]:
    """A pool of distinct uniform instances (Boolean and MIN/MAX mix).

    Tree ``i`` is generated from sub-seed ``seed + i`` so pools of
    different sizes share a prefix — handy when scaling a benchmark.
    """
    if num_trees < 1:
        raise ValueError("need at least one tree")
    pool: List[ConcreteTree] = []
    for i in range(num_trees):
        sub_seed = seed + i
        if (i + 1) / num_trees <= minmax_fraction:
            pool.append(iid_minmax_integers(
                branching, height, seed=sub_seed, num_values=8
            ))
        else:
            rng = np.random.default_rng(sub_seed)
            pool.append(iid_boolean(
                branching, height, float(rng.uniform(0.3, 0.7)),
                seed=sub_seed,
            ))
    return pool


def _algo_for(
    tree: ConcreteTree, rng: np.random.Generator
) -> Tuple[str, Tuple[Tuple[str, int], ...]]:
    """Draw an applicable algorithm (+ params) for one tree."""
    if tree.kind is TreeKind.BOOLEAN:
        candidates = [a for a in _BOOLEAN_ONLY if a != "machine"]
        # The Section-7 machine implementation is binary-NOR only.
        if isinstance(tree, UniformTree) and tree.branching == 2:
            candidates.append("machine")
        algo = candidates[int(rng.integers(len(candidates)))]
    else:
        algo = _MINMAX_FAMILY[int(rng.integers(len(_MINMAX_FAMILY)))]
    params: Tuple[Tuple[str, int], ...] = ()
    if algo in ("parallel", "nparallel", "parallel_ab"):
        params = (("width", int(rng.integers(1, 4))),)
    elif algo == "team":
        params = (("processors", int(rng.integers(2, 6))),)
    return algo, params


def synthetic_stream(
    num_requests: int,
    *,
    seed: int,
    num_trees: int = 12,
    zipf_s: float = 1.2,
    branching: int = 2,
    height: int = 4,
    pool: Optional[Sequence[ConcreteTree]] = None,
    algos: Optional[Sequence[str]] = None,
) -> List[EvalRequest]:
    """Generate a zipf-skewed request stream over a finite tree pool.

    ``pool`` overrides the generated tree pool; ``algos`` restricts
    algorithm choice to the given names (they must all apply to every
    tree kind present in the pool).
    """
    rng = np.random.default_rng(seed)
    trees: Sequence[ConcreteTree] = (
        pool if pool is not None
        else make_tree_pool(
            num_trees, seed=seed, branching=branching, height=height
        )
    )
    weights = zipf_weights(len(trees), zipf_s)
    picks = rng.choice(len(trees), size=num_requests, p=weights)
    requests: List[EvalRequest] = []
    for rid, idx in enumerate(picks):
        tree = trees[int(idx)]
        if algos is not None:
            algo = str(algos[int(rng.integers(len(algos)))])
            params: Tuple[Tuple[str, int], ...] = ()
        else:
            algo, params = _algo_for(tree, rng)
        requests.append(EvalRequest(rid, algo, tree, params))
    return requests
