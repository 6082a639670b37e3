"""Base paths and codes — the counting argument behind Proposition 3.

At each step t of Parallel SOLVE of width 1 the *base path* P_t is the
root-leaf path ending at the leftmost live leaf w_t.  Its *code* C(t)
records, for every non-root node v_i on the path, the number of live
right-siblings of v_i prior to the step.  The proof of Proposition 3
rests on three facts this module makes checkable:

1. codes strictly decrease in lexicographic order step over step;
2. hence all codes are distinct, so the number of steps whose code has
   exactly k non-zero components is at most C(n, k) * (d-1)**k;
3. the parallel degree of step t equals 1 + (number of non-zero
   components of C(t)).

``trace_codes`` replays Parallel SOLVE of width 1 with an
instrumentation hook and returns the per-step records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple, TypeVar

from ..core.policies import WidthPolicy, select_leftmost_live
from ..core.solve_engine import run_boolean
from ..core.status import BooleanState
from ..trees.base import GameTree, NodeId


#: The shadow state's type: a BooleanState or the expansion model's.
S = TypeVar("S", bound=BooleanState)


@dataclass
class StepCode:
    """One step's base path, code and parallel degree."""

    step: int
    base_leaf: NodeId
    path: Tuple[NodeId, ...]
    code: Tuple[int, ...]
    degree: int

    @property
    def nonzero_components(self) -> int:
        return sum(1 for c in self.code if c > 0)


def _code_of_path(
    tree: GameTree, state: BooleanState, path: Tuple[NodeId, ...]
) -> Tuple[int, ...]:
    """c_i = live right-siblings of v_i (non-root path nodes) prior to
    the step; a sibling is live iff its own value is undetermined."""
    code = []
    for node in path[1:]:
        live = sum(
            1
            for sib in tree.right_siblings(node)
            if sib not in state.value
        )
        code.append(live)
    return tuple(code)


def _trace_base_paths(
    tree: GameTree,
    pre_state: S,
    run: Callable[[Callable[..., None]], object],
    select: Callable[[GameTree, S, int], List[NodeId]],
    advance: Callable[[S, NodeId], object],
) -> List[StepCode]:
    """Record each step's base path and code during ``run(on_step)``.

    ``pre_state`` is a shadow of the engine state kept one step behind
    by ``advance``, so codes are computed against the state *prior* to
    the step, exactly as in the paper's definition; ``select`` picks
    the base path's end (the leftmost selectable node) in it.
    """
    records: List[StepCode] = []

    def on_step(state: S, step: int, batch) -> None:
        # Base node: leftmost selectable node prior to this step =
        # first selected node (selection is left-to-right).
        base = select(tree, pre_state, 1)
        assert base and base[0] == batch[0], "selection lost left order"
        path = tree.path_from_root(base[0])
        records.append(
            StepCode(
                step=step,
                base_leaf=base[0],
                path=path,
                code=_code_of_path(tree, pre_state, path),
                degree=len(batch),
            )
        )
        # Advance the shadow state to match.
        for node in batch:
            advance(pre_state, node)

    run(on_step)
    return records


def trace_codes(tree: GameTree, width: int = 1) -> List[StepCode]:
    """Run Parallel SOLVE recording the base path and code of each step.

    The code is computed against the state *prior* to the step, exactly
    as in the paper's definition.
    """
    return _trace_base_paths(
        tree, BooleanState(tree),
        lambda on_step: run_boolean(
            tree, WidthPolicy(width), on_step=on_step
        ),
        select_leftmost_live, BooleanState.evaluate_leaf,
    )


def codes_lex_decreasing(records: List[StepCode]) -> bool:
    """Whether consecutive codes strictly decrease lexicographically.

    Codes of different base paths can have different lengths on
    non-uniform trees; the comparison pads with -1 (absent levels),
    matching the paper's fixed-length codes on uniform trees.
    """
    for prev, cur in zip(records, records[1:]):
        a, b = list(prev.code), list(cur.code)
        width = max(len(a), len(b))
        a += [-1] * (width - len(a))
        b += [-1] * (width - len(b))
        if not b < a:
            return False
    return True


def degree_matches_code(records: List[StepCode]) -> bool:
    """Whether every step's parallel degree equals 1 + #nonzero(code).

    This is the paper's "the code encodes the parallel degree" claim;
    it holds for width 1 on skeletons (and on uniform instances).
    """
    return all(
        rec.degree == 1 + rec.nonzero_components for rec in records
    )


def trace_expansion_codes(tree: GameTree, width: int = 1) -> List[StepCode]:
    """Proposition 6's instrumentation: base paths in the
    node-expansion model.

    At each step of N-Parallel SOLVE the base path runs from the root
    to the leftmost *frontier node* (so paths have varying lengths m
    <= n, which is where Prop 6's extra (n - k) factor comes from);
    the code again counts live right-siblings of the non-root path
    nodes prior to the step.
    """
    from ..core.nodeexpansion import (
        ExpansionState,
        NWidthPolicy,
        run_expansion,
        select_leftmost_frontier,
    )

    return _trace_base_paths(
        tree, ExpansionState(tree),
        lambda on_step: run_expansion(
            tree, NWidthPolicy(width), on_step=on_step
        ),
        select_leftmost_frontier, ExpansionState.expand,
    )
