"""Shared-memory segments over the arena's canonical columns.

The arena engines (:mod:`repro.core.arena`) already lower a tree once
into flat :class:`~repro.trees.canonical.CanonicalArrays` columns.
This module maps the three columns a *leaf worker* needs into
:mod:`multiprocessing.shared_memory` blocks, once per tree:

``values``
    A float64 copy of ``CanonicalArrays.values`` (leaf payloads;
    internal entries are NaN and never read by a worker).
``batch``
    An int64 scratch column the coordinator fills with the current
    step's preorder leaf indices before dispatching the step.
``out``
    A float64 column the workers write oracle outputs into, in place,
    indexed by preorder position.

The coordinator (the process that ran :meth:`ArenaSegments.publish`)
owns the blocks: it registers them with the ``resource_tracker`` (so
the tracker unlinks them if the coordinator dies) and it is the only
process that ever calls ``unlink``.  Workers attach read-write by name
via :meth:`ArenaSegments.attach`, which maps the blocks *without*
registering them.  ``SharedMemory(name=...)`` registers every open
before Python 3.13 (``track=False`` arrived then), and registering
needs the tracker's pipe, which shm workers close at start so that a
worker set kept alive across sessions never holds the tracker open
(:mod:`repro.core.shm.pool`).  A forked child also inherits the
coordinator's own mappings; :func:`close_inherited` drops them, so a
worker maps only the session it is attached to.  The lifecycle tests
pin all this by listing ``/dev/shm`` and ``/proc/<pid>/maps``.

Segment names embed the owner pid and a per-process counter, so two
concurrent sessions (or a crash-rebuilt pool attaching again) can
never collide.
"""

from __future__ import annotations

import itertools
import mmap
import os
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional, Tuple, Union

import numpy as np

from ...trees.canonical import CanonicalArrays

__all__ = ["ArenaSegments", "SegmentSpec", "close_inherited"]

#: Per-process counter feeding unique segment names.
_COUNTER = itertools.count()

#: Owner-side segments published and not yet closed: what a child
#: forked from this process finds mapped.
_PUBLISHED: "weakref.WeakSet[ArenaSegments]" = weakref.WeakSet()


class _Mapping:
    """A shared-memory block mapped by name without registering it
    with the resource tracker, as ``SharedMemory(name, track=False)``
    does from Python 3.13 on."""

    __slots__ = ("_mmap", "buf")

    def __init__(self, name: str) -> None:
        import _posixshmem

        fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
        try:
            self._mmap = mmap.mmap(fd, os.fstat(fd).st_size)
        finally:
            os.close(fd)
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        self.buf.release()
        self._mmap.close()


#: A mapped block: the owner's ``SharedMemory``, or an attachment.
_Block = Union[shared_memory.SharedMemory, _Mapping]


@dataclass(frozen=True)
class SegmentSpec:
    """Picklable description of one published arena — what a worker
    needs to attach: the three segment names, the node count, and the
    owner's pid (attachers never unlink; the owner does)."""

    values_name: str
    batch_name: str
    out_name: str
    n_nodes: int
    owner_pid: int


class ArenaSegments:
    """One tree's columns mapped into shared memory.

    Build with :meth:`publish` (owner side) or :meth:`attach` (worker
    side); use as a context manager or call :meth:`close` — the owner's
    close also unlinks.  Both are idempotent, so the crash-rebuild and
    degraded paths can tear down unconditionally.
    """

    def __init__(
        self,
        spec: SegmentSpec,
        blocks: Tuple[_Block, _Block, _Block],
        *,
        owner: bool,
    ) -> None:
        self.spec = spec
        self._blocks: Optional[Tuple[_Block, ...]] = blocks
        self._owner = owner
        n = spec.n_nodes
        values_blk, batch_blk, out_blk = blocks
        #: Leaf payloads (read-only by convention; workers never write).
        self.values: Optional[np.ndarray] = np.ndarray(
            (n,), dtype=np.float64, buffer=values_blk.buf
        )
        #: Current step's preorder leaf indices (coordinator-written).
        self.batch: Optional[np.ndarray] = np.ndarray(
            (n,), dtype=np.int64, buffer=batch_blk.buf
        )
        #: Oracle outputs, written in place by the workers.
        self.out: Optional[np.ndarray] = np.ndarray(
            (n,), dtype=np.float64, buffer=out_blk.buf
        )

    # -- construction ------------------------------------------------------
    @classmethod
    def publish(cls, arrays: CanonicalArrays) -> "ArenaSegments":
        """Create the blocks and copy the arena's columns in (owner)."""
        n = arrays.n_nodes
        if n < 1:
            raise ValueError("cannot publish an empty arena")
        stem = f"repro_{os.getpid()}_{next(_COUNTER)}"
        nbytes = n * 8  # float64 and int64 columns alike
        made = []
        try:
            for role in ("values", "batch", "out"):
                made.append(
                    shared_memory.SharedMemory(
                        name=f"{stem}_{role}", create=True, size=nbytes
                    )
                )
        except BaseException:
            for blk in made:
                blk.close()
                blk.unlink()
            raise
        spec = SegmentSpec(
            values_name=made[0].name,
            batch_name=made[1].name,
            out_name=made[2].name,
            n_nodes=n,
            owner_pid=os.getpid(),
        )
        segments = cls(spec, (made[0], made[1], made[2]), owner=True)
        assert segments.values is not None
        assert segments.batch is not None
        assert segments.out is not None
        segments.values[:] = arrays.values
        segments.batch[:] = 0
        segments.out[:] = 0.0
        _PUBLISHED.add(segments)
        return segments

    @classmethod
    def attach(cls, spec: SegmentSpec) -> "ArenaSegments":
        """Map an already-published arena by name (worker side),
        without registering it with the resource tracker."""
        blocks = []
        try:
            for name in (
                spec.values_name, spec.batch_name, spec.out_name
            ):
                blocks.append(_Mapping(name))
        except BaseException:
            for blk in blocks:
                blk.close()
            raise
        # An attachment never owns the blocks, even one made in the
        # owner's process (injected in-process executors do this): the
        # published ArenaSegments is the sole unlinker.
        return cls(spec, (blocks[0], blocks[1], blocks[2]), owner=False)

    # -- lifecycle ---------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._blocks is None

    def close(self) -> None:
        """Drop the views, unmap the blocks, and (owner only) unlink.

        Only the publishing process unlinks: a forked child closing
        the owner's segments it inherited just unmaps them.
        Idempotent.  The numpy views must be released before the mmap
        can close (an exported buffer makes ``close`` raise
        ``BufferError``), so the ``values``/``batch``/``out``
        attributes are dead after this call.
        """
        blocks = self._blocks
        if blocks is None:
            return
        self._blocks = None
        _PUBLISHED.discard(self)
        self.values = None
        self.batch = None
        self.out = None
        for blk in blocks:
            blk.close()
        if self._owner and self.spec.owner_pid == os.getpid():
            for blk in blocks:
                try:
                    blk.unlink()
                except FileNotFoundError:  # lint: disable=R6
                    pass  # already unlinked (double-teardown race)

    def __enter__(self) -> "ArenaSegments":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def close_inherited() -> None:
    """Unmap every published segment this process inherited by fork.

    A forked worker starts with its parent's owner mappings of every
    open session; left alone, a worker that outlives those sessions
    would keep their unlinked pages alive.  Never unlinks.
    """
    pid = os.getpid()
    for segments in list(_PUBLISHED):
        if segments.spec.owner_pid == pid:
            continue
        try:
            segments.close()
        except BufferError:
            # Something here still holds a view of the block: a mapping
            # left behind costs pages, a failed worker costs the run.
            continue
