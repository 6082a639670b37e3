"""Task objects executed by the level processors (Section 7).

Three kinds of work exist in the implementation:

* :class:`STask` — a non-recursive left-to-right depth-first search of a
  subtree (the implementation of S-SOLVE*), one node expansion per work
  tick, with the current root-to-frontier path held on a pushdown stack;
* :class:`Case1Task` — P-SOLVE*(v) when no S-SOLVE*(v) is in progress:
  expand v (one tick), spawn P-SOLVE*(w) / S-SOLVE*(x) for the
  children, then wait for their values;
* :class:`TraverseTask` — P-SOLVE*(v) when S-SOLVE*(v) *is* in
  progress (case two): walk the stack's path top-down, one node per
  tick, sending P-SOLVE** / P-SOLVE*** / P-SOLVE* and sibling
  S-SOLVE* messages as prescribed; plus the two waiting variants
  :class:`Wait2Task` (P-SOLVE**) and :class:`Wait3Task` (P-SOLVE***).

All tasks interact with their processor through a tiny interface:
``needs_work`` / ``work()`` for ticks, ``on_val`` for value messages.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import SimulationError
from ..trees.base import GameTree, NodeId
from ..types import Gate


def _binary_children(tree: GameTree, node: NodeId) -> Tuple[NodeId, NodeId]:
    kids = tree.children(node)
    if len(kids) != 2:
        raise SimulationError(
            "the Section 7 implementation handles binary NOR trees; "
            f"node {node!r} has {len(kids)} children"
        )
    return kids[0], kids[1]


def _check_nor(tree: GameTree, node: NodeId) -> None:
    if tree.gate(node) is not Gate.NOR:
        raise SimulationError(
            "the Section 7 implementation handles binary NOR trees; "
            f"node {node!r} computes {tree.gate(node).label}"
        )


def check_binary_nor(tree: GameTree) -> None:
    """Raise :class:`~repro.errors.SimulationError` unless every
    internal node of ``tree`` is a binary NOR gate.

    The machine checks each node only when it expands it; this walks
    the whole tree up front.
    """
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if not tree.is_leaf(node):
            _check_nor(tree, node)
            stack.extend(_binary_children(tree, node))


class STask:
    """Sequential depth-first NOR evaluation of the subtree at ``root``.

    The stack holds frames ``[node, children or None, child index]``;
    the top frame is always unexpanded.  One call to :meth:`work`
    performs exactly one node expansion; the gate bookkeeping between
    expansions is free, as in the node-expansion model.
    """

    def __init__(self, root: NodeId):
        self.root = root
        self.stack: List[list] = [[root, None, 0]]
        self.done = False
        self.result: Optional[int] = None

    @property
    def needs_work(self) -> bool:
        return not self.done

    def work(self, proc) -> None:
        """One expansion step; reports val(root) upward on completion."""
        if self.done:  # pragma: no cover - defensive
            return
        frame = self.stack[-1]
        node = frame[0]
        proc.machine.count_expansion(node)
        if proc.machine.tree.is_leaf(node):
            ret = int(proc.machine.tree.leaf_value(node))
            self.stack.pop()
            self._unwind(proc.machine.tree, ret)
        else:
            _check_nor(proc.machine.tree, node)
            frame[1] = _binary_children(proc.machine.tree, node)
            self.stack.append([frame[1][0], None, 0])
        if self.done:
            proc.send_val(self.root, self.result)

    def _unwind(self, tree: GameTree, ret: int) -> None:
        """Free gate bookkeeping after a subtree returned ``ret``."""
        while self.stack:
            frame = self.stack[-1]
            gate = tree.gate(frame[0])
            if ret == gate.absorbing:
                ret = gate.on_absorb
                self.stack.pop()
                continue
            frame[2] += 1
            if frame[2] == len(frame[1]):
                ret = gate.otherwise
                self.stack.pop()
                continue
            self.stack.append([frame[1][frame[2]], None, 0])
            return
        self.done = True
        self.result = ret


class _WaitingMixin:
    """Shared val(w)/val(x) bookkeeping for the waiting task kinds."""

    node: NodeId
    left: NodeId
    right: NodeId

    def _init_wait(self, proc, send_p_on_left_zero: bool) -> None:
        self.w_val: Optional[int] = None
        self.x_val: Optional[int] = None
        self.finished = False
        self._send_p = send_p_on_left_zero
        # Values may have arrived before this task was installed (e.g.
        # while the path traversal was still in flight); consult the
        # processor's value memory.
        for child, setter in ((self.left, "w"), (self.right, "x")):
            if child in proc.val_memory and not self.finished:
                self.on_val(proc, child, proc.val_memory[child])

    def on_val(self, proc, node: NodeId, value: int) -> None:
        if self.finished:
            return
        if node == self.left and self.w_val is None:
            self.w_val = value
            if value == 1:
                self._report(proc, 0)
            elif self.x_val is not None:
                self._report(proc, 1 if self.x_val == 0 else 0)
            elif self._send_p:
                # First message was val(w) = 0: upgrade the sibling
                # search S-SOLVE*(x) into the width-1 cascade.
                proc.send_invocation("P_SOLVE", self.right, proc.level + 1)
        elif node == self.right and self.x_val is None:
            self.x_val = value
            if value == 1:
                self._report(proc, 0)
            elif self.w_val is not None:
                self._report(proc, 1 if self.w_val == 0 else 0)

    def _report(self, proc, value: int) -> None:
        self.finished = True
        proc.send_val(self.node, value)


class Case1Task(_WaitingMixin):
    """P-SOLVE*(v), case one: expand v, spawn children, wait."""

    def __init__(self, node: NodeId):
        self.node = node
        self.expanded = False
        self.finished = False

    @property
    def needs_work(self) -> bool:
        return not self.expanded and not self.finished

    def work(self, proc) -> None:
        tree = proc.machine.tree
        self.expanded = True
        proc.machine.count_expansion(self.node)
        if tree.is_leaf(self.node):
            self.finished = True
            proc.send_val(self.node, int(tree.leaf_value(self.node)))
            return
        _check_nor(tree, self.node)
        self.left, self.right = _binary_children(tree, self.node)
        proc.send_invocation("P_SOLVE", self.left, proc.level + 1)
        proc.send_invocation("S_SOLVE", self.right, proc.level + 1)
        self._init_wait(proc, send_p_on_left_zero=True)

    def on_val(self, proc, node, value):
        if not self.expanded:
            return  # children unknown yet; memory will catch us up
        super().on_val(proc, node, value)


class Wait2Task(_WaitingMixin):
    """P-SOLVE**(v): v already expanded, left child's value unknown."""

    def __init__(self, node: NodeId, proc):
        self.node = node
        self.left, self.right = _binary_children(proc.machine.tree, node)
        self._init_wait(proc, send_p_on_left_zero=True)

    needs_work = False

    def work(self, proc) -> None:  # pragma: no cover - never scheduled
        raise SimulationError("Wait2Task has no work phase")


class Wait3Task(_WaitingMixin):
    """P-SOLVE***(v): v expanded and its left child is known to be 0."""

    def __init__(self, node: NodeId, proc):
        self.node = node
        self.left, self.right = _binary_children(proc.machine.tree, node)
        self.w_val = 0
        self.x_val = None
        self.finished = False
        self._send_p = False
        if self.right in proc.val_memory:
            self.on_val(proc, self.right, proc.val_memory[self.right])

    needs_work = False

    def work(self, proc) -> None:  # pragma: no cover - never scheduled
        raise SimulationError("Wait3Task has no work phase")


class TraverseTask:
    """P-SOLVE*(v), case two: convert a running S-SOLVE*(v) search.

    Walks the S-task's stack path top-down, one node per tick, sending
    the messages Section 7 prescribes.  The message addressed to this
    processor itself (for v, the first path node) is applied locally
    when the walk completes, which avoids racing the walk against its
    own self-message; values arriving meanwhile land in the processor's
    value memory and are replayed on installation.
    """

    def __init__(self, stask: STask, proc):
        tree = proc.machine.tree
        self.node = stask.root
        # (offset from own level, action tag, node, right sibling or None)
        self.actions: List[tuple] = []
        for offset, frame in enumerate(stask.stack):
            node, kids, idx = frame
            if kids is None:
                self.actions.append((offset, "terminal", node, None))
            elif idx == 0:
                self.actions.append((offset, "left", node, kids[1]))
            else:
                self.actions.append((offset, "right", node, None))
        self.cursor = 0
        self.pending_self: Optional[tuple] = None
        self.finished = False

    @property
    def needs_work(self) -> bool:
        return not self.finished

    def on_val(self, proc, node: NodeId, value: int) -> None:
        """Values arriving mid-walk are held in the processor's value
        memory and replayed when the deferred self task installs."""

    def work(self, proc) -> None:
        offset, tag, node, sibling = self.actions[self.cursor]
        level = proc.level + offset
        if offset == 0:
            # Own node: defer installation until the walk completes.
            self.pending_self = (tag, node)
            if tag == "left":
                proc.send_invocation("S_SOLVE", sibling, level + 1)
        else:
            if tag == "terminal":
                proc.send_invocation("P_SOLVE", node, level)
            elif tag == "left":
                proc.send_invocation("P_SOLVE2", node, level)
                proc.send_invocation("S_SOLVE", sibling, level + 1)
            else:  # "right"
                proc.send_invocation("P_SOLVE3", node, level)
        self.cursor += 1
        if self.cursor == len(self.actions):
            self.finished = True
            proc.install_pending(self.pending_self)
