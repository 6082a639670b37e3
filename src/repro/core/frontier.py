"""Incremental frontier engine for the width-w model-step algorithms.

The paper defines every width-w algorithm by a per-step rescan: "at
each step, evaluate all live leaves with pruning number at most w".
The reference policies in :mod:`repro.core.policies` implement that
statement literally — a budgeted DFS from the root at every basic
step, which re-walks the whole in-range region even though almost none
of it changed since the previous step.  This module maintains the same
selection *incrementally*: determinations are pushed into a priority
structure as they happen, and each basic step reads the ready-made
frontier instead of recomputing it.

Data structure
--------------
For a width ``w`` define the *active region* as the set of unsettled
nodes with pruning number at most ``w`` — exactly the nodes the
budgeted rescan visits.  :class:`FrontierIndex` stores

* ``budget[v] = w - pn(v) >= 0`` for every active node ``v`` (for the
  unbounded policies — Team/Saturation — every live node is active and
  budgets are unused);
* a DFS *order key* per active node: the tuple of child positions on
  the root path, so left-to-right tree order is lexicographic key
  order;
* the frontier — the active *terminal* nodes (live leaves, or
  unexpanded nodes in the node-expansion model) as a sorted list of
  ``(key, node)`` pairs.  Removals tombstone in place (validity is
  checked against the budget table on read) and reads compact the
  list, so no read or write pays more than the touched entries.

Events
------
The engines mutate state one transition at a time and the state
objects publish the transitions (see ``subscribe`` on
:class:`~repro.core.status.BooleanState`,
:class:`~repro.core.alphabeta.state.AlphaBetaState` and
:class:`~repro.core.nodeexpansion.state.ExpansionState`), always
children before ancestors:

* :meth:`FrontierIndex.on_settled` — a node became determined,
  finished or pruned.  Its active subtree is spliced out, and every
  still-live right-sibling loses one unit of sibling cost: its active
  subtree gets ``budget += 1`` and nodes whose budget reaches 0 are
  activated by a budgeted DFS confined to the newly exposed region.
* :meth:`FrontierIndex.on_expanded` (node-expansion model) — a
  frontier node became interior; its children inherit budgets
  ``budget[v] - live_index``.

Costs
-----
A node is activated at most once, raised at most ``w`` times while
active, and removed at most once, so total maintenance over a whole
run is ``O(R * (w + height))`` where ``R`` is the number of nodes
that are ever active — independent of the number of steps.  The
rescan backend pays the size of the active region *per step*, so the
incremental engine wins exactly when runs are long relative to how
fast the region churns; see ``docs/frontier_engine.md`` for the
equivalence argument and measurements.

The incremental and rescan backends are step-for-step identical — the
differential property suite under ``tests/properties/`` asserts equal
per-step batches on every generated instance.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Dict, List, Optional, Tuple

from ..telemetry import Recorder
from ..telemetry import live as _live_recorder
from ..trees.base import GameTree, NodeId
from .policies import check_count
from .status import BooleanState

#: Root-path child positions; lexicographic order == left-to-right order.
OrderKey = Tuple[int, ...]


class FrontierIndex:
    """Incrementally maintained width-w frontier over a game tree.

    Parameters
    ----------
    tree:
        The tree being evaluated (any :class:`~repro.trees.base.GameTree`).
    state:
        The engine state publishing transitions; held only for identity
        checks by the policies.
    width:
        The pruning-number bound ``w``, or ``None`` for the unbounded
        frontier (all live terminals — Team/Saturation selection).
    settled:
        Predicate: has this node left the unsettled set (determined /
        finished-or-pruned)?
    terminal:
        Predicate for the walk's terminals, for models whose terminals
        can *stop* being terminal (the node-expansion model passes
        "not yet expanded").  ``None`` (leaf-evaluation models) uses
        ``tree.is_leaf``, which is immutable and never re-checked on
        reads.
    """

    def __init__(
        self,
        tree: GameTree,
        state: object,
        *,
        width: Optional[int],
        settled: Callable[[NodeId], bool],
        terminal: Optional[Callable[[NodeId], bool]] = None,
        recorder: Optional[Recorder] = None,
    ):
        if width is not None:
            width = check_count(width, 0, "width must be >= 0")
        self._rec = _live_recorder(recorder)
        self.tree = tree
        self.state = state
        self.width = width
        self._settled = settled
        #: terminals can only mutate in the expansion model.
        self._terminal_mutates = terminal is not None
        self._terminal = terminal if terminal is not None else tree.is_leaf
        #: remaining budget (w - pruning number) of each active node.
        self._budget: Dict[NodeId, int] = {}
        self._key: Dict[NodeId, OrderKey] = {}
        #: sorted (key, node) pairs over the active terminals; entries
        #: whose node is no longer an active terminal are tombstones.
        self._frontier: List[Tuple[OrderKey, NodeId]] = []
        #: read offset: entries before it are consumed tombstones.
        self._start = 0
        self._kids: Dict[NodeId, Tuple[NodeId, ...]] = {}
        root = tree.root
        if not settled(root):
            initial = width if width is not None else 0
            self._activate(root, initial, (), sink=self._frontier)
            self._frontier.sort()

    def set_recorder(self, recorder: Optional[Recorder]) -> None:
        """Attach a telemetry sink (normalised; ``None`` disables)."""
        self._rec = _live_recorder(recorder)

    # -- reads -------------------------------------------------------------
    def _is_current(self, node: NodeId) -> bool:
        if node not in self._budget:
            return False
        return not self._terminal_mutates or self._terminal(node)

    def batch(self) -> List[NodeId]:
        """All frontier terminals, in left-to-right order.

        Compacts tombstones as a side effect, so a full read costs the
        live size plus each stale entry once.
        """
        frontier = self._frontier
        budget = self._budget
        start = self._start
        if self._terminal_mutates:
            terminal = self._terminal
            live = [
                entry for entry in frontier[start:]
                if entry[1] in budget and terminal(entry[1])
            ]
        else:
            live = [
                entry for entry in frontier[start:] if entry[1] in budget
            ]
        if start or len(live) != len(frontier):
            self._frontier = live
            self._start = 0
        return [entry[1] for entry in live]

    def first(self, limit: int) -> List[NodeId]:
        """The leftmost ``limit`` frontier terminals."""
        frontier = self._frontier
        budget = self._budget
        out: List[NodeId] = []
        i = self._start
        n = len(frontier)
        while i < n and len(out) < limit:
            node = frontier[i][1]
            if self._is_current(node):
                out.append(node)
            elif not out:
                # Contiguous consumed prefix: advance the read offset.
                self._start = i + 1
            i += 1
        return out

    def scored_batch(self) -> List[Tuple[NodeId, int]]:
        """Frontier terminals with their pruning numbers, in order."""
        width = self.width
        if width is None:
            raise ValueError("unbounded frontier has no pruning budgets")
        budget = self._budget
        return [(node, width - budget[node]) for node in self.batch()]

    def most_urgent(self, processors: int) -> List[NodeId]:
        """The ``processors`` lowest-pruning-number frontier terminals.

        Ties break towards earlier tree order; the selection is
        returned in tree order — exactly
        :func:`~repro.core.policies.rank_by_urgency` over
        :meth:`scored_batch`, but via a bounded heap instead of a full
        sort, so a step costs one frontier scan even when only a few
        of many ready leaves can run.
        """
        width = self.width
        if width is None:
            raise ValueError("unbounded frontier has no pruning budgets")
        leaves = self.batch()
        if self._rec is not None:
            self._rec.observe("frontier.most_urgent_pool", len(leaves))
        if len(leaves) <= processors:
            return leaves
        budget = self._budget
        scores = [width - budget[node] for node in leaves]
        # Scores lie in [0, width]; counting sort finds the cutoff
        # score and how many of its holders fit, no heap needed.
        counts = [0] * (width + 1)
        for score in scores:
            counts[score] += 1
        quota = processors
        for cutoff, count in enumerate(counts):
            if count >= quota:
                break
            quota -= count
        out = []
        for leaf, score in zip(leaves, scores):
            if score > cutoff:
                continue
            if score == cutoff:
                if not quota:
                    continue
                quota -= 1
            out.append(leaf)
        return out

    def pruning_number(self, node: NodeId) -> int:
        """Pruning number of an active node (``w - budget``)."""
        if self.width is None:
            raise ValueError("unbounded frontier has no pruning budgets")
        return self.width - self._budget[node]

    # -- event handlers ----------------------------------------------------
    def on_settled(self, node: NodeId) -> None:
        """``node`` left the unsettled set (determined/finished/pruned).

        Must be invoked once per transition, children before ancestors.
        Delivering a cascade's events after the whole cascade has been
        applied is allowed (and cheaper: sibling raises under an
        ancestor that settled in the same cascade are skipped).
        """
        budget_map = self._budget
        if self._rec is not None:
            self._rec.count("frontier.settled")
        if node in budget_map:
            self._remove_subtree(node)
        parent = self.tree.parent(node)
        if parent is None:
            return
        pb = budget_map.get(parent)
        if pb is None or self._settled(parent):
            # Siblings are untracked (outside the active region) or
            # the parent's own event removes the whole region.
            return
        if self.width is None:
            return  # unbounded: liveness is all that matters
        settled = self._settled
        pkey: Optional[OrderKey] = None
        live_i = 0
        seen = False
        for pos, child in enumerate(self.children_of(parent)):
            if not seen:
                if child == node:
                    seen = True
                elif not settled(child):
                    live_i += 1
                    if live_i > pb:
                        # ``node`` and everything right of it was
                        # already out of range; nothing can activate.
                        return
                continue
            if settled(child):
                continue
            # Live right-sibling: its live index dropped by one, so its
            # budget rose by one.
            new_b = pb - live_i
            if new_b < 0:
                return
            if child in budget_map:
                self._raise(child)
            else:
                if pkey is None:
                    pkey = self._key[parent]
                self._activate(child, new_b, pkey + (pos,))
            live_i += 1

    def on_expanded(self, node: NodeId) -> None:
        """Frontier ``node`` was expanded (node-expansion model only).

        The node's frontier entry goes stale in place (reads check the
        terminal predicate); if the node is interior its children
        inherit the budget.
        """
        b = self._budget.get(node)
        if b is None:
            return
        if self._rec is not None:
            self._rec.count("frontier.expanded")
        if self.tree.is_leaf(node):
            # The leaf's determination cascade follows as on_settled
            # events, which clear the budget/key entries.
            return
        key = self._key[node]
        bounded = self.width is not None
        settled = self._settled
        live_i = 0
        for pos, child in enumerate(self.children_of(node)):
            if settled(child):
                continue
            cb = b - live_i if bounded else b
            live_i += 1
            if bounded and cb < 0:
                break
            self._activate(child, cb, key + (pos,))

    # -- internals ---------------------------------------------------------
    def children_of(self, node: NodeId) -> Tuple[NodeId, ...]:
        """Cached ordered children (never called on walk terminals)."""
        kids = self._kids.get(node)
        if kids is None:
            kids = self._kids[node] = tuple(self.tree.children(node))
        return kids

    def _activate(
        self,
        node: NodeId,
        budget: int,
        key: OrderKey,
        sink: Optional[List[Tuple[OrderKey, NodeId]]] = None,
    ) -> None:
        """Insert ``node`` (budget >= 0) and its in-range subtree."""
        fresh: List[Tuple[OrderKey, NodeId]] = [] if sink is None else sink
        bounded = self.width is not None
        settled = self._settled
        terminal = self._terminal
        budget_map = self._budget
        key_map = self._key
        stack = [(node, budget, key)]
        while stack:
            v, b, k = stack.pop()
            budget_map[v] = b
            key_map[v] = k
            if terminal(v):
                fresh.append((k, v))
                continue
            live_i = 0
            for pos, child in enumerate(self.children_of(v)):
                if settled(child):
                    continue
                cb = b - live_i if bounded else b
                live_i += 1
                if bounded and cb < 0:
                    break
                stack.append((child, cb, k + (pos,)))
        if sink is None:
            frontier = self._frontier
            for entry in fresh:
                insort(frontier, entry, lo=self._start)

    def _raise(self, node: NodeId) -> None:
        """Credit ``+1`` budget to ``node``'s active subtree, expanding
        across the activation boundary where budgets reach zero."""
        settled = self._settled
        terminal = self._terminal
        budget_map = self._budget
        stack = [node]
        while stack:
            v = stack.pop()
            b = budget_map[v] + 1
            budget_map[v] = b
            if terminal(v):
                continue
            vkey: Optional[OrderKey] = None
            live_i = 0
            for pos, child in enumerate(self.children_of(v)):
                if settled(child):
                    continue
                cb = b - live_i
                live_i += 1
                if cb < 0:
                    break
                if child in budget_map:
                    stack.append(child)
                else:
                    if vkey is None:
                        vkey = self._key[v]
                    self._activate(child, cb, vkey + (pos,))

    def _remove_subtree(self, node: NodeId) -> None:
        """Drop the active subtree of ``node`` from the budget/key
        tables; its frontier entries become tombstones."""
        budget_map = self._budget
        key_map = self._key
        terminal = self._terminal
        if terminal(node):
            del budget_map[node]
            del key_map[node]
            if self._rec is not None:
                self._rec.observe("frontier.settle_cascade", 1)
            return
        kids_map = self._kids
        removed = 0
        stack = [node]
        while stack:
            v = stack.pop()
            del budget_map[v]
            del key_map[v]
            removed += 1
            if terminal(v):
                continue
            for child in kids_map.get(v, ()):
                if child in budget_map:
                    stack.append(child)
            kids_map.pop(v, None)
        if self._rec is not None:
            self._rec.observe("frontier.settle_cascade", removed)


# ---------------------------------------------------------------------------
# Incremental selection policies (Boolean leaf-evaluation model)
# ---------------------------------------------------------------------------


class _IncrementalPolicy:
    """Base for policies backed by a :class:`FrontierIndex`.

    The index binds lazily to the engine's state on the first call (and
    rebinds if the policy object is reused on a fresh run); the state's
    transition feed keeps it current from then on.

    Setting :attr:`recorder` (done by the solver entry points) attaches
    a telemetry sink to the index at bind time.
    """

    def __init__(self) -> None:
        self._index: Optional[FrontierIndex] = None
        self.recorder: Optional[Recorder] = None

    def _bind(self, tree: GameTree, state: object) -> FrontierIndex:
        raise NotImplementedError

    def index_for(self, tree: GameTree, state: object) -> FrontierIndex:
        idx = self._index
        if idx is None or idx.state is not state:
            idx = self._bind(tree, state)
            idx.set_recorder(self.recorder)
            self._index = idx
        return idx


def _boolean_index(
    tree: GameTree, state: BooleanState, width: Optional[int]
) -> FrontierIndex:
    idx = FrontierIndex(
        tree, state, width=width, settled=state.value.__contains__
    )
    state.subscribe(idx.on_settled)
    return idx


class IncrementalWidthPolicy(_IncrementalPolicy):
    """Parallel SOLVE width-w selection, incrementally maintained.

    Step-for-step identical to :class:`~repro.core.policies.WidthPolicy`.
    """

    def __init__(self, width: int):
        super().__init__()
        self.width = width = check_count(width, 0, "width must be >= 0")
        self.name = f"parallel-solve(w={width}, incremental)"

    def _bind(self, tree: GameTree, state: object) -> FrontierIndex:
        assert isinstance(state, BooleanState)
        return _boolean_index(tree, state, self.width)

    def __call__(self, tree: GameTree, state: BooleanState) -> List[NodeId]:
        return self.index_for(tree, state).batch()


class IncrementalBoundedWidthPolicy(_IncrementalPolicy):
    """Width-w selection capped at ``processors`` leaves, incremental.

    Step-for-step identical to
    :class:`~repro.core.policies.BoundedWidthPolicy`.
    """

    def __init__(self, width: int, processors: int):
        super().__init__()
        self.width = width = check_count(width, 0, "width must be >= 0")
        self.processors = processors = check_count(
            processors, 1, "need at least one processor"
        )
        self.name = (
            f"parallel-solve(w={width}, p={processors}, incremental)"
        )

    def _bind(self, tree: GameTree, state: object) -> FrontierIndex:
        assert isinstance(state, BooleanState)
        return _boolean_index(tree, state, self.width)

    def __call__(self, tree: GameTree, state: BooleanState) -> List[NodeId]:
        return self.index_for(tree, state).most_urgent(self.processors)


class IncrementalTeamPolicy(_IncrementalPolicy):
    """Team SOLVE selection (leftmost p live leaves), incremental.

    Step-for-step identical to :class:`~repro.core.policies.TeamPolicy`.
    """

    def __init__(self, processors: int):
        super().__init__()
        self.processors = processors = check_count(
            processors, 1, "Team SOLVE needs at least one processor"
        )
        self.name = f"team-solve(p={processors}, incremental)"

    def _bind(self, tree: GameTree, state: object) -> FrontierIndex:
        assert isinstance(state, BooleanState)
        return _boolean_index(tree, state, None)

    def __call__(self, tree: GameTree, state: BooleanState) -> List[NodeId]:
        return self.index_for(tree, state).first(self.processors)


class IncrementalSequentialPolicy(IncrementalTeamPolicy):
    """Sequential SOLVE (leftmost live leaf), incremental."""

    def __init__(self) -> None:
        super().__init__(1)
        self.name = "sequential-solve(incremental)"


class IncrementalSaturationPolicy(_IncrementalPolicy):
    """Saturation selection (every live leaf), incremental.

    Step-for-step identical to
    :class:`~repro.core.policies.SaturationPolicy`.
    """

    name = "saturation-solve(incremental)"

    def _bind(self, tree: GameTree, state: object) -> FrontierIndex:
        assert isinstance(state, BooleanState)
        return _boolean_index(tree, state, None)

    def __call__(self, tree: GameTree, state: BooleanState) -> List[NodeId]:
        return self.index_for(tree, state).batch()
