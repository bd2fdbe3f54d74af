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
to check that inputs are free of cycles.  Tree contraction is a loop over
the input's leaves (Shun, Gu, Blelloch, Fineman, Gibbons, SODA 2015): each
step rakes a leaf into its parent and compresses the parent, or only
rakes under a root.  Its rounds find the steps whose parent is another's
grandparent by tagging: each step's parent briefly holds the step's
position in its own parent slot, and each step reads its grandparent's.

Every round runs over ``budget.round_words(n)`` ids, the cache-capped
prefix p(n) <= b(n), so the charged state is only the engine's p-word
prefix and p-byte commit mask.
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
)

# alloc is unused here; perfbench's tracer patches it by name in this
# module, so it stays importable from it
__all__ = [
    "LinkedList", "BinaryTree", "make_priorities",
    "validate_linked_list", "validate_binary_tree",
    "list_contract", "list_rank", "tree_contract", "alloc",
]

DEFAULT_BUDGET = EpsilonConfig(epsilon=0.5)

NIL32 = (1 << 32) - 1
_NILW = WORD(NIL)


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
    """Tree contraction as a loop over the input's leaves.

    The iterates are the input leaves, in id order; a cursor sweeps the ids
    for ``left == NIL`` and yields exactly the ids each round asks for.  A
    step takes its leaf l, l's parent p, p's other child s and
    g = parent(p).  Under a grandparent, it rakes l into p and compresses
    p: s takes p's slot under g, and l's and p's values fold into s.  Under
    a root p it only rakes: values[p] += values[l], and l's slot in p gets
    p's own id, so the root keeps its id and its sum, and a ``left == NIL``
    slot always means an input leaf.  A bare root's step does nothing.  An
    input leaf can always step, so no queue is needed.

    Two steps conflict when they are sibling leaves in the same round, or
    when one step's p is the other's g; the higher priority fails and a tie
    fails both.  The round's ids ascend and hold every pending leaf up to
    the last, so a sibling is in the round exactly when it is a leaf at
    most ``ids[-1]``.  The second case is found by tagging: each
    compressing step writes its position | 2^63 into its p's parent slot,
    reads its g's slot, and the slot gets g back.  A tag that is read
    belongs to one step alone: a step whose p is another's g has a
    non-leaf sibling, so no sibling shares its p.  Root rakes write no
    tag: each writes only its own slot of the root, and a compress under
    the root writes the other one.
    """

    def __init__(self, tree: BinaryTree, p: np.ndarray, values: np.ndarray,
                 debug: bool):
        self.pa = tree.parent
        self.lf = tree.left
        self.rt = tree.right
        self.n = len(tree)
        self.p = p
        self.values = values
        self.debug = debug
        self.cursor = 0

    def count_leaves(self) -> int:
        """The iterate count, ``SCRATCH_WORDS`` ids at a time."""
        return sum(int(np.count_nonzero(self.lf[s:s + SCRATCH_WORDS] == _NILW))
                   for s in range(0, self.n, SCRATCH_WORDS))

    def next_ids(self, count: int) -> np.ndarray:
        """The next ``count`` leaves past the cursor, ascending (fewer only
        when the leaves run out).  About half of a window's ids are leaves,
        so the first window is min(``SCRATCH_WORDS``, 2·count) ids; a
        shortfall sweeps on in ``SCRATCH_WORDS``-id windows."""
        parts = []
        width = min(SCRATCH_WORDS, 2 * count)
        while count > 0 and self.cursor < self.n:
            lo = self.cursor
            hi = min(lo + width, self.n)
            idx = (self.lf[lo:hi] == _NILW).nonzero()[0]
            if len(idx) > count:
                idx = idx[:count]
                hi = lo + int(idx[-1]) + 1
            idx += lo
            self.cursor = hi
            parts.append(idx)
            count -= len(idx)
            width = SCRATCH_WORDS
        return np.concatenate(parts) if parts else np.empty(0, dtype=WORD)

    def reserve(self, view) -> None:
        ids = view.ids
        i = ix(ids)
        if self.debug:
            self._check_leaves(i)
        ok = view.committed
        ok[:] = True
        up = self.pa.take(i)
        # a bare root stands in as its own parent: its sibling reads as
        # itself and its grandparent as NIL, so it conflicts with nothing
        bare = up == _NILW
        if bare.any():
            np.copyto(up, ids, where=bare)
        q = ix(up)
        sib = self.lf.take(q)
        sib ^= self.rt.take(q)
        sib ^= ids  # one of p's slots holds the leaf itself
        pv = self.p.take(i)

        # sibling leaves in the round
        k = (sib <= ids[-1]).nonzero()[0]
        s = sib.take(k)
        del sib
        keep = (self.lf.take(ix(s)) == _NILW) & (s != ids.take(k))
        k, s = k[keep], ix(s[keep])
        a, b = pv.take(k), self.p.take(s)
        ok[k.take((a >= b).nonzero()[0])] = False
        del k, s, a, b

        # one step's p is another's g: every compressing step tags its p's
        # parent slot and reads its g's
        g = self.pa.take(q)
        c = (g != _NILW).nonzero()[0]
        g = g.take(c)
        tag = WORD(1 << 63)
        pc = q.take(c)
        self.pa[pc] = c.view(WORD) | tag
        got = self.pa.take(ix(g))
        self.pa[pc] = g
        del g, pc
        got ^= tag
        hit = (got < WORD(len(ids))).nonzero()[0]
        kid, par = c.take(hit), ix(got.take(hit))
        a, b = pv.take(kid), pv.take(par)
        ok[kid.take((a >= b).nonzero()[0])] = False
        ok[par.take((b >= a).nonzero()[0])] = False

    def commit(self, view) -> None:
        v = view.ids[view.committed]
        up = self.pa.take(ix(v))
        pm = up != _NILW
        if not pm.all():
            # a bare root's step does nothing: its value is final
            v, up = v[pm], up[pm]
        del pm
        q = ix(up)
        g = self.pa.take(q)
        sib = self.lf.take(q)
        sib ^= self.rt.take(q)
        sib ^= v
        cm = g != _NILW
        k = cm.nonzero()[0]
        if self.debug:
            self._check_steps(up, up.take(k), g.take(k))
        # a compress folds l and p into s, a root rake folds l into p; no
        # step reads a value another writes, and no two write one slot
        add = self.values.take(ix(v))
        add[k] += self.values.take(q.take(k))
        self.values[ix(np.where(cm, sib, up))] += add
        del add
        self.pa[ix(sib.take(k))] = g.take(k)
        # then a compress writes s into p's slot in g, and a root rake p
        # into l's slot in p: (host, old word, new word), in place
        rake = ~cm
        del cm, k
        np.copyto(g, up, where=rake)
        np.copyto(sib, up, where=rake)
        np.copyto(up, v, where=rake)
        del rake, v
        host = ix(g)
        left = self.lf.take(host) == up
        at = left.nonzero()[0]
        self.lf[host.take(at)] = sib.take(at)
        at = (~left).nonzero()[0]
        self.rt[host.take(at)] = sib.take(at)

    def clean(self, view) -> None:
        pass

    # -- debug checks
    def _check_leaves(self, i: np.ndarray) -> None:
        """Every prefix id is a leaf: only a leaf can step."""
        if not ((self.lf[i] == _NILW) & (self.rt[i] == _NILW)).all():
            raise AssertionError("a prefix id is not a leaf")

    @staticmethod
    def _check_steps(parents: np.ndarray, compressed: np.ndarray,
                     grandparents: np.ndarray) -> None:
        """No two committed steps share a parent, and no compressed parent
        is another committed step's grandparent."""
        if len(np.unique(parents)) < len(parents):
            raise AssertionError("two committed steps share a parent")
        if np.isin(compressed, grandparents).any():
            raise AssertionError("a committed step's parent is another's "
                                 "grandparent")


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
    Each root keeps its id; the other nodes' links are left as the steps
    that removed them saw them, and a root's raked slots hold its own id.
    In debug mode every round raises ``AssertionError`` if a prefix id is
    not a leaf, if two committed steps share a parent, or if a committed
    step's compressed parent is another's grandparent.
    """
    as_words(p)
    as_words(values)
    n = len(tree)
    if len(p) != n or len(values) != n:
        raise ValueError("priorities/values length mismatch")
    if n == 0:
        return _Roots(tree.parent, values), RoundStats()
    client = _TreeClient(tree, p, values, debug)
    stats = run_rounds(client.count_leaves(), budget.round_words(n),
                       client.reserve, client.commit, client.clean,
                       id_source=client.next_ids)
    return _Roots(tree.parent, values), stats
