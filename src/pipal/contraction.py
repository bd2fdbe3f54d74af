"""List and tree contraction on the deterministic-reservations engine.

Per round, active-prefix elements whose priority is a strict local minimum
among their live neighbors splice out.  A spliced list element's own two
pointer slots are overwritten with its splice-time context, so the
contraction forest needs no storage beyond the input links.

List ranking runs a weighted variant: each live element's ``prev`` slot
packs (predecessor pointer, incoming edge weight) as two 32-bit halves,
which caps ranking inputs at 2^32 - 2 elements; a spliced element keeps
(parent, distance), and ranks come from pointer doubling over that forest,
rank(v) = dist(v) + rank(parent(v)) (Wyllie 1979), block by block in place,
so no temporary grows with n; the validators walk the whole array at once
to check that inputs are free of cycles.  Tree contraction finds a round's
in-prefix edges with one sort of packed words, for trees below 2^31 nodes.

Every round runs over ``budget.round_words(n)`` ids, the cache-capped
prefix p(n) <= b(n), so the charged state is the engine's p-word prefix
and p-byte commit mask, plus tree contraction's 2p + 8 word frontier queue.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .detres import RoundStats, run_rounds
from .runtime import (
    NIL,
    SCRATCH_WORDS,
    WORD,
    EpsilonConfig,
    alloc,
    as_words,
    ix,
    release,
)

__all__ = [
    "LinkedList", "BinaryTree", "make_priorities",
    "validate_linked_list", "validate_binary_tree",
    "list_contract", "list_rank", "tree_contract",
]

DEFAULT_BUDGET = EpsilonConfig(epsilon=0.5)

NIL32 = (1 << 32) - 1
_NILW = WORD(NIL)
_TAG = WORD(1 << 31)  # _TreeClient._edges: a parent tag over a position
_POS = _TAG - WORD(1)


@dataclass
class LinkedList:
    """Doubly-linked chains over index arrays; NIL terminates both ends."""

    next: np.ndarray
    prev: np.ndarray

    def __post_init__(self) -> None:
        as_words(self.next)
        as_words(self.prev)
        if len(self.next) != len(self.prev):
            raise ValueError("next/prev length mismatch")

    def __len__(self) -> int:
        return len(self.next)


@dataclass
class BinaryTree:
    """Rooted forest of binary trees; internal nodes have exactly two children."""

    parent: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.parent, self.left, self.right):
            as_words(arr)
        if not len(self.parent) == len(self.left) == len(self.right):
            raise ValueError("parent/left/right length mismatch")

    def __len__(self) -> int:
        return len(self.parent)


def make_priorities(n: int, rng) -> np.ndarray:
    """Distinct random priorities: a random permutation of 0..n-1.

    Generated with the package's own permutation machinery at a fixed
    derived seed, so ties are impossible by construction.
    """
    from .relaxed import make_swap_sequence, random_permutation

    p = np.arange(n, dtype=WORD)
    if n > 1:
        random_permutation(p, make_swap_sequence(n, rng.derive(0x707269)))
    return p


# ---------------------------------------------------------------------------
# Validation

def validate_linked_list(lst: LinkedList) -> None:
    """Reject malformed lists: dangling or non-inverse links, or cycles."""
    n = len(lst)
    nxt, prv = lst.next, lst.prev
    for arr, name in ((nxt, "next"), (prv, "prev")):
        live = arr != _NILW
        if bool(np.any(arr[live] >= WORD(n))):
            raise ValueError(f"{name} pointer out of range")
    for fwd, back in ((nxt, prv), (prv, nxt)):
        ids = np.flatnonzero(fwd != _NILW)
        if bool(np.any(back[ix(fwd[ids])] != ids.astype(WORD))):
            raise ValueError("prev/next are not mutually inverse")
    # with inverse links the list is disjoint chains and cycles; a node is
    # on a chain exactly when walking prev reaches NIL
    if not _jump(prv.copy()):
        raise ValueError("list contains a cycle")


def validate_binary_tree(tree: BinaryTree) -> None:
    n = len(tree)
    pa, lf, rt = tree.parent, tree.left, tree.right
    for arr, name in ((pa, "parent"), (lf, "left"), (rt, "right")):
        live = arr != _NILW
        if bool(np.any(arr[live] >= WORD(n))):
            raise ValueError(f"{name} pointer out of range")
    if bool(np.any((lf == _NILW) != (rt == _NILW))):
        raise ValueError("internal nodes must have exactly two children")
    for child in (lf, rt):
        ids = np.flatnonzero(child != _NILW)
        if bool(np.any(pa[ix(child[ids])] != ids.astype(WORD))):
            raise ValueError("child/parent links inconsistent")
    ids = np.flatnonzero(pa != _NILW)
    if len(ids):
        up = ix(pa[ids])
        ids = ids.astype(WORD)
        if bool(np.any((lf[up] != ids) & (rt[up] != ids))):
            raise ValueError("child/parent links inconsistent")
    if bool(np.any((lf == rt) & (lf != _NILW))):
        raise ValueError("child/parent links inconsistent")
    # with consistent links every node has one parent, so a node is
    # reachable from a root exactly when walking parent reaches NIL
    if not _jump(pa.copy()):
        raise ValueError("tree contains a cycle or unreachable nodes")


def _jump(up: np.ndarray, dist: np.ndarray | None = None,
          block: int = 0) -> bool:
    """Pointer-double every ``up`` chain to NIL in place; return whether
    every chain got there.

    A chain of at most n links reaches NIL within ceil(log2 n) + 1
    doublings; a node still live after that lies on or above a cycle.  With
    ``dist``, each node adds the ``dist`` of the node it jumps to, so a node
    that reaches NIL holds the sum of ``dist`` along its chain.  A pass
    jumps ``block``-id blocks in place, last to first (0: one block, a
    synchronous doubling).  A block gathers its hops' ``up`` and ``dist``
    before it writes its own, so each pair stays (ancestor, distance to
    it), and a hop into a block already done reads its newer pair.
    """
    n = len(up)
    block = block or max(n, 1)
    for _ in range(n.bit_length() + 1):
        more = False
        for s in range((n - 1) // block * block, -1, -block):
            live = (up[s:s + block] != _NILW).nonzero()[0] + s
            hop = ix(up[live])
            if dist is not None:
                dist[live] += dist[hop]
            up[live] = up[hop]
            more = more or bool(np.any(up[live] != _NILW))
        if not more:
            return True
    return False


# ---------------------------------------------------------------------------
# List contraction

class _ListClient:
    """Plain contraction: live links stay mutually inverse pointers.

    An element defers only to neighbors active in its round; the rest, and
    NIL (above every id), count as priority infinity.  The ids ascend, since
    failures pack in order ahead of counting fresh ids, and hold every
    pending id up to the last; a live link points at a pending element, so
    a neighbor is active exactly when it is at most ``ids[-1]``.  Few are
    (about 1% of a round's ids at 2^20), so reserve takes each side's
    active neighbors as one index list, not as masks.
    """

    def __init__(self, lst: LinkedList, p: np.ndarray):
        self.nxt = lst.next
        self.prv = lst.prev
        self.p = p

    def _pred(self, ids: np.ndarray) -> np.ndarray:
        return self.prv[ids]

    def reserve(self, view) -> None:
        ids = view.ids
        i = ix(ids)
        pv = self.p[i]
        ok = view.committed
        ok[:] = True
        for nbr in (self.nxt[i], self._pred(i)):
            k = (nbr <= ids[-1]).nonzero()[0]
            ok[k] &= pv.take(k) < self.p[ix(nbr.take(k))]

    def commit(self, view) -> None:
        v = ix(view.ids[view.committed])
        u = self.prv[v]
        x = self.nxt[v]
        um = u != _NILW
        xm = x != _NILW
        self.nxt[ix(u[um])] = x[um]
        self.prv[ix(x[xm])] = u[xm]
        # v's own slots keep (u, x): the forest context costs nothing extra

    def clean(self, view) -> None:
        pass


class _RankClient(_ListClient):
    """Weighted contraction: prev packs (pointer, incoming distance)."""

    def _pred(self, ids: np.ndarray) -> np.ndarray:
        return self.prv[ids] >> WORD(32)

    def commit(self, view) -> None:
        v = ix(view.ids[view.committed])
        packed = self.prv[v]
        u = packed >> WORD(32)
        w_uv = packed & WORD(NIL32)
        x = self.nxt[v]
        um = u != WORD(NIL32)
        xm = x != _NILW
        xs = ix(x[xm])
        w_vx = self.prv[xs] & WORD(NIL32)
        self.prv[xs] = (u[xm] << WORD(32)) | (w_uv[xm] + w_vx)
        self.nxt[ix(u[um])] = x[um]
        # dead slots: (parent, distance to parent)
        self.nxt[v] = np.where(um, u, _NILW)
        self.prv[v] = w_uv


def list_contract(lst: LinkedList, p: np.ndarray,
                  budget: EpsilonConfig = DEFAULT_BUDGET) -> RoundStats:
    """Splice out every element; per round the active-prefix local minima go.

    After the run each element's own (prev, next) slots hold the neighbor
    pair it saw when spliced.
    """
    as_words(p)
    n = len(lst)
    if len(p) != n:
        raise ValueError("priorities length mismatch")
    if n == 0:
        return RoundStats()
    client = _ListClient(lst, p)
    return run_rounds(n, budget.round_words(n), client.reserve,
                      client.commit, client.clean)


def list_rank(lst: LinkedList, p: np.ndarray,
              budget: EpsilonConfig = DEFAULT_BUDGET) -> np.ndarray:
    """Rank every element within its chain, in place over the list storage.

    Consumes ``lst``: contraction leaves each element's (parent, distance)
    in its own slots, and pointer doubling turns them into ranks.
    Afterwards ``lst.prev`` holds the 0-based ranks (and is also the
    returned array) and ``lst.next`` is all NIL.
    """
    as_words(p)
    n = len(lst)
    if len(p) != n:
        raise ValueError("priorities length mismatch")
    if n >= NIL32:
        raise ValueError("list ranking supports fewer than 2^32 - 1 elements")
    if n == 0:
        return lst.prev

    nxt, prv = lst.next, lst.prev
    # pack (prev pointer, incoming weight) in place: NIL << 32 is NIL32 << 32
    # mod 2^64, so heads need no mask; they carry weight 1 like every other
    # element, which puts every rank one too high until the end
    prv <<= WORD(32)
    prv |= WORD(1)

    client = _RankClient(lst, p)
    run_rounds(n, budget.round_words(n), client.reserve, client.commit,
               client.clean)
    if not _jump(nxt, prv, SCRATCH_WORDS):
        raise RuntimeError("ranking forest contains a cycle")
    prv -= WORD(1)
    return prv


# ---------------------------------------------------------------------------
# Tree contraction

class _TreeClient:
    """Rake leaves into parents, compress unary nodes into their child.

    A node with two children cannot contract no matter its priority, so a
    fixed id-order prefix could wedge on a window of internal nodes.  The
    iterate source is therefore a bounded frontier: a cursor sweeps the ids
    once, queueing nodes that are contractible when it passes, and a rake
    that makes an already-swept parent contractible queues that parent.
    Every pending contractible node is discovered exactly once, and the
    queue plus in-flight failures never exceed twice the prefix.  A queued
    node keeps at most one child, so each edge with both ends active is
    found once, from its child; a tie fails both ends.  The commit turns
    each split (compress or rake, left or right side, fresh parent or not)
    into an index list once and gathers and scatters through it: the splits
    are about half True at random places, where boolean-mask indexing is
    slowest.
    """

    def __init__(self, tree: BinaryTree, p: np.ndarray, values: np.ndarray,
                 prefix: int, debug: bool):
        self.pa = tree.parent
        self.lf = tree.left
        self.rt = tree.right
        self.n = len(tree)
        self.p = p
        self.values = values
        self.debug = debug
        self.prefix = prefix
        # packed frontier: queue[:qsize], oldest first
        self.queue = alloc(2 * prefix + 8)
        self.qsize = 0
        self.cursor = 0

    # -- frontier queue
    def _ready(self, at) -> np.ndarray:
        """Which nodes ``at`` (a slice or an index array) can contract:
        bare ones, and parented ones with at most one child.  A root keeps
        collecting rakes until bare."""
        lnil = self.lf[at] == _NILW
        rnil = self.rt[at] == _NILW
        return (lnil & rnil) | ((lnil | rnil) & (self.pa[at] != _NILW))

    def _push(self, ids: np.ndarray) -> None:
        end = self.qsize + len(ids)
        if end > len(self.queue):
            raise RuntimeError("tree contraction frontier overflow")
        self.queue[self.qsize:end] = ids
        self.qsize = end

    def _scan_fill(self) -> None:
        while self.qsize < self.prefix and self.cursor < self.n:
            # about half of a window's ids are leaves, so 2·need ids usually
            # fill the queue; the loop sweeps on if they fall short
            need = self.prefix - self.qsize
            hi = min(self.cursor + min(SCRATCH_WORDS, 2 * need), self.n)
            ids = self._ready(slice(self.cursor, hi)).nonzero()[0]
            ids += self.cursor
            if len(ids) > need:
                # leave the surplus ahead of the cursor for later sweeps
                ids = ids[:need]
                self.cursor = int(ids[-1]) + 1
            else:
                self.cursor = hi
            self._push(ids)

    def next_ids(self, count: int) -> np.ndarray:
        self._scan_fill()
        cnt = min(count, self.qsize)
        out = self.queue[:cnt].copy()
        self.qsize -= cnt
        self.queue[:self.qsize] = self.queue[cnt:cnt + self.qsize]
        return out

    # -- phases
    @staticmethod
    def _edges(ids: np.ndarray,
               up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Positions in ``ids`` of the (child, parent) ends of every edge
        with both ends in ``ids``, given ``up``, the parents of ``ids``: one
        sort of (id << 32) | pos and (parent << 32) | 2^31 | pos puts each
        id ahead of the entries naming it.  The ids are distinct and below
        2^31, and NIL packs to key 2^32 - 1, which no id reaches.  A key's
        run is its id's entry, if any, then the entries of its at most two
        children: a first child differs from the entry before it in the
        tag alone, and a second child matches the first child's entry in
        key and tag."""
        pos = np.arange(len(ids), dtype=WORD)
        buf = np.concatenate((ids << WORD(32) | pos,
                              up << WORD(32) | pos | _TAG))
        buf.sort()
        x = buf[1:] ^ buf[:-1]
        x >>= WORD(31)
        par = (x == WORD(1)).nonzero()[0]
        kid = par + 1
        # past the end, clip reads x[par] itself, which is 1
        two = par[x.take(kid, mode="clip") == WORD(0)]
        par = np.concatenate((par, two))
        kid = np.concatenate((kid, two + 2))
        return ix(buf[kid] & _POS), ix(buf[par] & _POS)

    def reserve(self, view) -> None:
        ids = view.ids
        i = ix(ids)
        pv = self.p[i]
        pa = self.pa[i]
        # every id can contract when queued and stays so: a node only loses
        # children, and a compress hands its child a parent; so only the
        # in-prefix edges can fail an id
        if self.debug and not self._ready(i).all():
            raise AssertionError("a prefix id is neither parented nor bare, "
                                 "or has two children")
        ok = view.committed
        ok[:] = True
        kid, up = self._edges(ids, pa)
        ok[kid] &= pv[kid] < pv[up]
        ok[up] &= pv[up] < pv[kid]

    def commit(self, view) -> None:
        v = view.ids[view.committed]
        pa = self.pa[ix(v)]
        if self.debug and len(self._edges(v, pa)[0]):
            raise AssertionError("a parent and its child contracted together")
        pm = pa != _NILW
        if not pm.all():
            # a committed root is bare and its value final; dropping it
            # keeps its NIL parent from indexing the folds below
            v, pa = v[pm], pa[pm]
        vi = ix(v)
        pi = ix(pa)
        # the one child, if any (NIL is the largest word).  A node folds
        # into its child, or into its parent when it has none (a rake); no
        # parent commits with its child, so no fold reads a folded value
        child = np.minimum(self.lf[vi], self.rt[vi])
        cm = child != _NILW
        np.add.at(self.values, ix(np.where(cm, child, pa)), self.values[vi])
        k = cm.nonzero()[0]
        self.pa[ix(child.take(k))] = pa.take(k)

        # fresh: a rake's parent that had two children and has a parent, or
        # that is left a bare root.  Each rake reads its sibling slot: a left
        # rake before the round's writes, a right rake after them, so a
        # parent raked from both sides passes on one side only
        is_left = self.lf[pi] == v
        r = (~cm).nonzero()[0]
        q = pi.take(r)
        sib = self.rt[q]
        for side, at in ((self.lf, is_left), (self.rt, ~is_left)):
            s = at.nonzero()[0]
            side[pi.take(s)] = child.take(s)
        np.copyto(sib, self.lf[q], where=~is_left.take(r))
        fresh = (sib != _NILW) == (self.pa[q] != _NILW)
        fresh &= q < self.cursor
        self._push(np.sort(pa.take(r.take(fresh.nonzero()[0]))))

    def clean(self, view) -> None:
        pass


class _Roots(Mapping):
    """{root id: folded value} read from ``parent`` and ``values`` on
    demand: the roots are the ids with a NIL parent (no commit writes NIL
    into a parent slot), found one ``SCRATCH_WORDS``-word block at a time."""

    def __init__(self, parent: np.ndarray, values: np.ndarray):
        self._parent = parent
        self._values = values

    def __getitem__(self, key) -> int:
        if (not isinstance(key, (int, np.integer))
                or not 0 <= key < len(self._parent) or self._parent[key] != _NILW):
            raise KeyError(key)
        return int(self._values[key])

    def _blocks(self):
        for s in range(0, len(self._parent), SCRATCH_WORDS):
            yield s, np.flatnonzero(self._parent[s:s + SCRATCH_WORDS] == _NILW)

    def __iter__(self):
        for s, r in self._blocks():
            yield from (r + s).tolist()

    def __len__(self) -> int:
        return sum(len(r) for _, r in self._blocks())


def tree_contract(tree: BinaryTree, p: np.ndarray, values: np.ndarray,
                  budget: EpsilonConfig = DEFAULT_BUDGET,
                  debug: bool = False) -> tuple[Mapping[int, int], RoundStats]:
    """Contract the forest; returns ({root id: folded value}, stats).

    ``values`` is caller storage and is folded in place by sum mod 2^64.
    The returned mapping is a read-only view that reads ``tree.parent``
    and ``values`` when asked, so nothing in it grows with the root count;
    changing those arrays afterwards changes its answers.
    In debug mode every round raises ``AssertionError`` if a prefix id
    cannot contract (each must be bare, or parented with at most one
    child), or if a parent and its child contract together.
    """
    as_words(p)
    as_words(values)
    n = len(tree)
    if len(p) != n or len(values) != n:
        raise ValueError("priorities/values length mismatch")
    if n >= 1 << 31:
        raise ValueError("tree contraction supports fewer than 2^31 nodes")
    if n == 0:
        return _Roots(tree.parent, values), RoundStats()
    prefix = budget.round_words(n)
    client = _TreeClient(tree, p, values, prefix, debug)
    try:
        stats = run_rounds(n, prefix, client.reserve, client.commit,
                           client.clean, id_source=client.next_ids)
    finally:
        release(client.queue)
    return _Roots(tree.parent, values), stats
