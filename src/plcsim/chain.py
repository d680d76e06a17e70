"""Chain feeders: a serpentine that walks cell to cell from the hub,
branching only when the next hop would cross an existing wire, and the
segment crossing test it rests on.

`gridgen.build_grids` grows the chains of all its sectors in lockstep, one
row per sector, in three phases:

1. *Tour.*  The tip is always the cell wired last, and a cell is wired
   whether its hop from the tip is blocked or not, so the order in which a
   chain wires its cells does not depend on where any of them attaches: it
   is the greedy nearest-neighbour tour from the hub, grown by the tree's
   loop (`plcsim.nearest`), whose every step picks the cell an ``argmin``
   over ``np.hypot`` distances picks.
2. *Crossing counts.*  For each hop, the number of earlier tour hops its
   wire crosses.  One sorted join (`_meeting`) finds the pairs of wires of
   a row whose closed bounding boxes meet; wires whose boxes do not meet
   share no point, and only rounding on four nearly collinear points could
   make their orientations claim a crossing.  A pair's four orientations
   are the scalar test's bit for bit whichever wire it takes as the query,
   as swapping an IEEE product's factors keeps it, and a difference's
   operands negates it.  Two wires share a node only as the later one's
   start, so a pair that shares one by node id runs the endpoint rules only
   if an orientation that node does not zero is zero.
3. *Repairs.*  A hop is blocked when it moves and its count is positive.
   Each round re-lays every blocked hop of every row from its nearest wired
   node but the tip, and one join tests the new wires against their rows'
   wires: the earlier as laid so far, the later from their tips, whose
   counts change by (crossings of the new wire) - (crossings of the old).
   A row keeps its blocked hops up to the first that must wait for the
   next round: one at or before which a kept re-lay changes a count, whose
   new wire crosses an earlier new wire of the round, or, unless it is the
   row's first, that crosses a wire laid so far.  A kept hop is still
   blocked, the hops between are not, and its new wire crosses none of the
   wires laid before it; the row's first blocked hop has an exact count and
   is always decided: if its new wire crosses, the next round tries its
   next-nearest start, and with none left it takes the nearest node, tip
   included, over a forced crossing.  By induction over the rounds, every
   decision is the one the cell-by-cell growth makes.

So each chain is bit-identical to one grown alone, cell by cell, whatever
the batch, the block or the chunk sizes, given that unused cell slots
hold ``+inf`` (never nearest), that hop lengths come from ``math.hypot`` on
scalars, and that wire distances are summed in hop order.
"""

from __future__ import annotations

import math

import numpy as np

from .nearest import grow_nearest


def _hits(s, t, ea, eb, ends=None) -> np.ndarray:
    """Per pair: does wire s-t cross wire ea-eb?  The points are ``(..., 2)``
    arrays that broadcast to one pair shape; ``ends``, if given, is a
    (head, tail) pair of masks of the pairs whose ``ea``, respectively
    ``eb``, is ``s``.  Wires cross when they share a point that is not an
    endpoint of both: a proper crossing, T-contact or collinear overlap; a
    NaN orientation never crosses.
    """
    sg = _orient(ea, eb, s), _orient(ea, eb, t), _orient(s, t, ea), _orient(s, t, eb)
    p12, p34 = sg[0] * sg[1], sg[2] * sg[3]
    hit = (p12 < 0) & (p34 < 0)
    # Every contact other than a proper crossing has a zero orientation, and
    # the endpoint rules decide those pairs.  The shared endpoint s makes
    # d1 = 0 and, on a head pair, d3 = 0, on a tail pair d4 = 0, all excused
    # by it: only the other two can make a contact.
    p12 *= p34
    if ends is not None:
        np.copyto(p12, sg[1] * sg[3], where=ends[0])
        np.copyto(p12, sg[1] * sg[2], where=ends[1])
    idx = np.nonzero(p12 == 0)
    if idx[0].size:
        p, q, a, b = (np.broadcast_to(x, hit.shape + (2,))[idx] for x in (s, t, ea, eb))
        z1, z2, z3, z4 = (d[idx] == 0 for d in sg)
        pa, pb, qa, qb = ((m == e).all(axis=1) for m in (p, q) for e in (a, b))
        hit[idx] = (
            (pa & qb)
            | (pb & qa)
            | (z1 & ~(pa | pb) & _in_box(p, a, b))
            | (z2 & ~(qa | qb) & _in_box(q, a, b))
            | (z3 & ~(pa | qa) & _in_box(a, p, q))
            | (z4 & ~(pb | qb) & _in_box(b, p, q))
        )
    return hit


def _in_box(m: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row: point m within the bounding box of segment a-b."""
    return ((np.minimum(a, b) <= m) & (m <= np.maximum(a, b))).all(axis=1)


def _orient(a: np.ndarray, b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sign(M) of points m against hops a-b, all broadcast to one shape, as
    float32, which holds a sign or NaN exactly."""
    dy = m[..., 1] - a[..., 1]
    dy *= b[..., 0] - a[..., 0]
    dx = m[..., 0] - a[..., 0]
    dx *= b[..., 1] - a[..., 1]
    dy -= dx
    return np.sign(dy, out=np.empty(dy.shape, np.float32))


def crosses_any(s, t, ea, eb) -> np.ndarray:
    """Per row i, does wire s[i]-t[i] cross any wire ea[i, j]-eb[i, j], as in
    `_hits`?  ``s`` and ``t`` are ``(rows, 2)``, ``ea`` and ``eb``
    ``(rows, edges, 2)``; NaN edges never cross."""
    s, t = s[:, None], t[:, None]
    return _hits(s, t, ea, eb).any(axis=1)


def grow_chains(node_xy: np.ndarray, filled: np.ndarray):
    """Serpentine chains: keep extending from the last-wired cell to the
    nearest unconnected cell; when that hop would cross an existing wire,
    branch from the candidate's nearest crossing-free node instead, the
    repair rounds trying one start per round in (distance, node id) order.

    If every attachment would cross (possible only in pathological
    layouts), the nearest node is used anyway and the row's forced
    crossing count is bumped.
    """
    rows, slots = filled.shape
    # tour position p holds node nid[:, p]: the hub, then the cells in
    # wiring order, then the padding; hop k wires node nid[:, k + 1] from
    # node src[:, k], its tip nid[:, k] unless it branches
    nid = np.zeros((rows, slots + 1), dtype=np.intp)
    nid[:, 1:] = grow_nearest(node_xy, filled, tree=False)
    pos = np.empty_like(nid)
    pos[np.arange(rows)[:, None], nid] = np.arange(slots + 1)
    src = nid[:, :-1].copy()
    # per-hop arrays are flat, hop k of row r at r * slots + k
    hr, hk = np.nonzero(filled)
    hop = hr * slots + hk
    moved = np.zeros(rows * slots, dtype=bool)
    moved[hop] = (node_xy[hr, nid[hr, hk]] != node_xy[hr, nid[hr, hk + 1]]).any(axis=1)
    e, w = _crossings(node_xy, hr, src[hr, hk], nid[hr, hk + 1], hk)
    old_e, old_w = hop[e], hop[w]  # tour hops that cross, old_e's first
    crossings = np.bincount(old_w, minlength=rows * slots)
    relaid = np.zeros(rows * slots, dtype=bool)
    tried = np.full(rows * slots, -1)  # a blocked first hop's last start that crossed
    forced = np.zeros(rows, dtype=np.intp)

    # Each round re-lays every blocked hop at once and keeps, per row, the
    # hops before the first that an earlier re-lay of the round may disturb.
    while True:
        f = np.flatnonzero(moved & (crossings > 0) & ~relaid)
        if not f.size:
            break
        r, j = np.divmod(f, slots)
        first = np.diff(r, prepend=-1) != 0
        c = nid[r, j + 1]
        c_xy = node_xy[r, c]
        a = _nearest_but_tip(node_xy, pos, r, j, c_xy, tried[f])
        # with no start left (-1), a first hop takes the nearest node, tip included
        stuck = a < 0
        a[stuck] = _nearest_but_tip(node_xy, pos, r[stuck], j[stuck] + 1, c_xy[stuck], a[stuck])
        np.add.at(forced, r[stuck], 1)
        long = (node_xy[r, a] != c_xy).any(axis=1) & ~stuck
        # the new wires (index n0 on) against their rows' wires as laid now
        h = np.flatnonzero(np.bincount(r, minlength=rows)[hr])
        n0 = h.size
        wires = np.stack((hr[h], src[hr[h], hk[h]], nid[hr[h], hk[h] + 1], hk[h]))
        wires = np.concatenate((wires, (r, a, c, j)), axis=1)
        e, w = _crossings(node_xy, *wires, n0)
        del wires
        later = w >= n0  # the new wire is the later one
        crossed = (np.bincount(w[later & (e < n0)] - n0, minlength=f.size) > 0) & long
        met = (np.bincount(w[later & (e >= n0)] - n0, minlength=f.size) > 0) & long
        # count changes on later hops: +1 where the new wire crosses, -1
        # where the tip's did
        k = np.searchsorted(f, old_e).clip(max=f.size - 1)  # old_e's place in f
        old = np.flatnonzero(f[k] == old_e)
        dj = np.concatenate((e[~later] - n0, k[old]))
        dk = np.concatenate((hop[h[w[~later]]], old_w[old]))
        dv = np.repeat((1, -1), (dj.size - old.size, old.size))
        pair, at = np.unique(dj * (rows * slots) + dk, return_inverse=True)
        changed = pair[np.bincount(at, dv) != 0] % (rows * slots)
        limit = np.full(rows, rows * slots)
        np.minimum.at(limit, changed // slots, changed)
        ok = _kept(first, f >= limit[r], met, crossed)
        relaid[f[ok]] = True
        src.ravel()[f[ok]] = a[ok]
        np.add.at(crossings, dk[ok[dj]], dv[ok[dj]])
        # a first blocked hop whose new wire crosses tries its next start
        # next round
        tried[f[crossed & first]] = a[crossed & first]

    hops = node_xy[hr, nid[hr, hk + 1]] - node_xy[hr, src[hr, hk]]
    length = np.zeros((rows, slots))
    length[hr, hk] = np.fromiter(map(math.hypot, *hops.T.tolist()), float, hr.size)
    return src, nid[:, 1:], length, forced


def _nearest_but_tip(node_xy, pos, r, j, c_xy, past) -> np.ndarray:
    """Per blocked hop j of row r, to c_xy: the first node wired before its
    tip in (``np.hypot`` distance, node id) order, after node ``past`` unless
    that is -1, or -1 if none is left; _HOPS hops at a time."""
    attach = np.empty(r.size, dtype=np.intp)
    for lo in range(0, r.size, _HOPS):
        i = slice(lo, lo + _HOPS)
        x, y = (node_xy[..., k].take(r[i], axis=0) - c_xy[i, k, None] for k in (0, 1))
        wired = pos.take(r[i], axis=0) < j[i, None]
        d = np.hypot(x, y, out=np.full(x.shape, np.inf), where=wired)
        del x, y
        attach[i] = d.argmin(axis=1)
        b = np.flatnonzero(past[i] >= 0)
        if b.size:
            p, d = past[i][b, None], d[b]
            dp = np.take_along_axis(d, p, axis=1)
            left = wired[b] & ((d > dp) | ((d == dp) & (np.arange(d.shape[1]) > p)))
            d[~left] = np.inf
            attach[lo + b] = np.where(left.any(axis=1), d.argmin(axis=1), -1)
    return attach


def _kept(first: np.ndarray, *reasons: np.ndarray) -> np.ndarray:
    """Per hop of a round, by row then hop (``first`` marks each row's
    first): whether no reason to defer holds for it or an earlier hop of
    its row."""
    bad = np.concatenate(([0], np.cumsum(np.logical_or.reduce(reasons))))
    return bad[1:] == bad[np.maximum.accumulate(np.where(first, np.arange(first.size), 0))]


# wires per row group and candidate pairs per chunk of _meeting, and blocked
# hops per chunk of _nearest_but_tip: they bound the memory of each
_WIRES = 1 << 13
_PAIRS = 1 << 12
_HOPS = 1 << 5


def _crossings(xy, r, u, v, hop, fixed=0):
    """The pairs (e, w) of wires that cross, e's hop before w's, skipping
    pairs of two wires below index ``fixed``.  Wire i of hop hop[i] runs
    from node u[i] to node v[i] of row r[i] (``xy``: (rows, nodes, 2)); two
    wires share a node only as the later one's start (`_hits`' ends)."""
    u, v, xy = u + r * xy.shape[1], v + r * xy.shape[1], xy.reshape(-1, 2)
    found = [(np.empty(0, np.intp), np.empty(0, np.intp))]
    for p, q in _meeting(xy, r, u, v, fixed):
        e, w = np.where(hop[p] < hop[q], (p, q), (q, p))
        e, w = e[hop[e] != hop[w]], w[hop[e] != hop[w]]
        s, t, ea, eb = (xy.take(i, axis=0) for i in (u[w], v[w], u[e], v[e]))
        hit = _hits(s, t, ea, eb, (u[w] == u[e], u[w] == v[e]))
        found.append((e[hit], w[hit]))
    return tuple(map(np.concatenate, zip(*found)))


def _meeting(xy, r, u, v, fixed):
    """Index pairs (p, q) of wires of one row (`_crossings`, ``fixed`` too)
    whose closed bounding boxes meet, once each: sorted by (row, x-min), a
    box's candidates are the boxes after it whose x-min is at most its x-max."""
    cut = np.searchsorted(np.cumsum(np.bincount(r)), np.arange(_WIRES, r.size, _WIRES)) + 1
    cut = [0, *cut.tolist(), int(r.max()) + 1]
    for r0, r1 in zip(cut[:-1], cut[1:]):
        sel = np.flatnonzero((r >= r0) & (r < r1))
        a, b = xy.take(u[sel], axis=0), xy.take(v[sel], axis=0)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        del a, b
        key = lo[:, 0] * 1j
        key += r[sel]  # complex numbers sort by real, then imaginary part
        order = np.argsort(key)
        key = key[order]
        end = hi[order, 0] * 1j
        end += r[sel][order]
        end = np.searchsorted(key, end, "right")
        ylo, yhi, n = lo[order, 1], hi[order, 1], sel.size
        del key, lo, hi
        # the candidates of sorted position p are pool[start[p]:end[p]]: all
        # positions, or for a fixed wire only those of the wires not fixed
        free = sel[order] >= fixed
        before = np.cumsum(free) + n  # pool index past the free positions so far
        pool = np.concatenate((np.arange(n), np.flatnonzero(free)))
        start = np.where(free, np.arange(1, n + 1), before)
        np.copyto(end, before[end - 1], where=~free)
        del free, before
        cum = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(end - start, out=cum[1:])
        start -= cum[:-1]  # pair g of position p is candidate pool[g + start[p]]
        order = sel[order]
        for g0 in range(0, cum[-1], _PAIRS):
            g1 = min(g0 + _PAIRS, cum[-1])
            p0, p1 = np.searchsorted(cum, (g0, g1 - 1), "right")
            p = np.repeat(np.arange(p0 - 1, p1), np.minimum(cum[p0 : p1 + 1], g1) - np.maximum(cum[p0 - 1 : p1], g0))
            q = start[p]
            q += np.arange(g0, g1)
            q = pool[q]
            meet = ylo[p] <= yhi[q]
            meet &= ylo[q] <= yhi[p]
            p, q = order[p[meet]], order[q[meet]]
            del meet
            yield p, q
