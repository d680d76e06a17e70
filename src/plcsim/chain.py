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
   wire crosses.  Hops whose closed bounding boxes do not meet share no
   point (NaN padding meets no box) and are skipped; only rounding on four
   nearly collinear points could make their orientations claim a crossing.
   Hop j against hop i has the orientations M[i, j], M[i, j + 1], M[j, i]
   and M[j, i + 1] (M[e, m]: point m against hop e) bit for bit, as swapping
   an IEEE product's factors keeps it, and a difference's operands negates it.
3. *Repairs.*  A hop is blocked when it moves and its count is positive.
   Each round branches the first blocked hop of every row: the hops before
   it are final, so its count is exact, and re-laying its wire adds
   (crossings of the new wire) - (crossings of the old) to the counts of
   the row's later hops.  By induction over the rounds, every decision is
   the one the cell-by-cell growth makes.

So each chain is bit-identical to one grown alone, cell by cell, whatever
the batch, the block, the band or the chunk, given that unused cell slots
hold ``+inf`` (never nearest) and unused tour points NaN (no orientation
sign, so never crossing), that hop lengths come from ``math.hypot`` on
scalars, and that wire distances are summed in hop order.
"""

from __future__ import annotations

import math

import numpy as np

from .nearest import grow_nearest


def _in_box(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> bool:
    """Point p within the bounding box of segment ab."""
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def _orient(s, t, ea, eb, ab) -> tuple[np.ndarray, ...]:
    """Signs of the four orientations of wire s-t against wire ea-eb, whose
    vector is ``ab``: of s (d1) and t (d2) against ea-eb, and of ea (d3) and
    eb (d4) against s-t.  The points are ``(..., 2)`` arrays that broadcast
    to one pair shape."""
    sx, sy = s[..., 0], s[..., 1]
    tx, ty = t[..., 0], t[..., 1]
    ax, ay = ea[..., 0], ea[..., 1]
    abx, aby = ab[..., 0], ab[..., 1]
    sax = sx - ax
    say = sy - ay
    d1 = abx * say - aby * sax
    d2 = abx * (ty - ay) - aby * (tx - ax)
    stx = tx - sx
    sty = ty - sy
    # ay - sy and ax - sx are exactly -say and -sax
    d3 = sty * sax - stx * say
    del sax, say
    d4 = stx * (eb[..., 1] - sy) - sty * (eb[..., 0] - sx)
    return tuple(np.sign(d, out=d) for d in (d1, d2, d3, d4))


def _hits(sg, s, t, ea, eb, tail=False) -> np.ndarray:
    """Per pair: does wire s-t cross wire ea-eb, given the signs ``sg`` of
    their orientations (`_orient`; a NaN sign never crosses)?  The points
    broadcast to the pair shape (plus an axis of 2); ``tail`` marks pairs
    whose ``eb`` is ``s``.  Wires cross when they share a point that is not
    an endpoint of both: a proper crossing, T-contact or collinear overlap.
    """
    sg1, sg2, sg3, sg4 = sg
    p12, p34 = sg1 * sg2, sg3 * sg4
    hit = (p12 < 0) & (p34 < 0)
    # Every contact other than a proper crossing has a zero orientation.
    # Those pairs are rare apart from wires sharing an endpoint, so the
    # endpoint rules run on them one by one.  On a tail pair d1 = d4 = 0,
    # excused by the shared endpoint: only d2 or d3 can make a contact.
    p12 *= p34
    if tail is not False:
        np.copyto(p12, sg2 * sg3, where=tail)
    zero = p12 == 0
    idx = np.nonzero(zero)
    if not idx[0].size:
        return hit
    shape = zero.shape
    ends = [np.broadcast_to(p, shape + (2,))[idx].tolist() for p in (s, t, ea, eb)]
    flat = [(np.broadcast_to(x, shape)[idx] == 0).tolist() for x in sg]
    found = []
    for (px, py), (qx, qy), (ax, ay), (bx, by), z1, z2, z3, z4 in zip(*ends, *flat):
        p_is_a = px == ax and py == ay
        p_is_b = px == bx and py == by
        q_is_a = qx == ax and qy == ay
        q_is_b = qx == bx and qy == by
        found.append(
            (p_is_a and q_is_b)
            or (p_is_b and q_is_a)
            or (z1 and not (p_is_a or p_is_b) and _in_box(px, py, ax, ay, bx, by))
            or (z2 and not (q_is_a or q_is_b) and _in_box(qx, qy, ax, ay, bx, by))
            or (z3 and not (p_is_a or q_is_a) and _in_box(ax, ay, px, py, qx, qy))
            or (z4 and not (p_is_b or q_is_b) and _in_box(bx, by, px, py, qx, qy))
        )
    hit[idx] = found
    return hit


def crosses_any(s, t, ea, eb, ab=None) -> np.ndarray:
    """Per row i, does wire s[i]-t[i] cross any wire ea[i, j]-eb[i, j], as in
    `_hits`?  ``s`` and ``t`` are ``(rows, 2)``, ``ea`` and ``eb`` and
    ``ab = eb - ea``, if given, ``(rows, edges, 2)``; NaN edges never cross."""
    if ab is None:
        ab = eb - ea
    s, t = s[:, None], t[:, None]
    return _hits(_orient(s, t, ea, eb, ab), s, t, ea, eb).any(axis=1)


def grow_chains(node_xy: np.ndarray, filled: np.ndarray):
    """Serpentine chains: keep extending from the last-wired cell to the
    nearest unconnected cell; when that hop would cross an existing wire,
    branch from the candidate's nearest crossing-free node instead.

    If every attachment would cross (possible only in pathological
    layouts), the nearest node is used anyway and the row's forced
    crossing count is bumped.
    """
    rows, slots = filled.shape
    all_rows = np.arange(rows)[:, None]
    lives = filled.sum(axis=0).tolist()
    n = filled.sum(axis=1)
    # tour position p holds node nid[:, p] at P[:, p]: the hub, then the
    # cells in wiring order, then the padding (NaN in P, as is the extra
    # last column); hop k runs from P[:, k] to P[:, k + 1]
    nid = np.zeros((rows, slots + 1), dtype=np.intp)
    nid[:, 1:] = grow_nearest(node_xy, filled, lives, tree=False)
    P = np.full((rows, slots + 2, 2), np.nan)
    P[:, :-1] = node_xy[all_rows, nid]
    P[:, 1:-1][~filled] = np.nan
    pos = np.empty_like(nid)
    pos[all_rows, nid] = np.arange(slots + 1)
    # hop k starts at tour position at[:, k]: its tip, unless it branches
    at = np.tile(np.arange(slots), (rows, 1))
    moved = (P[:, 1:-1] != P[:, :-2]).any(axis=2)
    crossings = _tour_crossings(P, lives)
    forced = np.zeros(rows, dtype=np.intp)
    hop = np.arange(slots)
    final = np.zeros(rows, dtype=np.intp)  # the hops up to it are final

    # Each round branches the first blocked hop of every row.  The hops
    # before it are final, so its crossing count is exact; re-laying its
    # wire changes the counts of the later hops only.
    while True:
        pending = moved & (crossings > 0) & (hop > final[:, None])
        rr = np.flatnonzero(pending.any(axis=1))
        if not rr.size:
            break
        j = pending[rr].argmax(axis=1)
        final[rr] = j
        c_xy = P[rr, j + 1]
        # the nearest wired node but the tip, ties to the lower node id
        nd = np.full((rr.size, slots + 1), np.inf)
        dx, dy = node_xy[rr, :, 0] - c_xy[:, 0:1], node_xy[rr, :, 1] - c_xy[:, 1:2]
        attach = np.hypot(dx, dy, out=nd, where=pos[rr] < j[:, None]).argmin(axis=1)
        a_xy = node_xy[rr, attach]
        # its wire against the wires laid so far
        crossed = np.zeros(rr.size, dtype=bool)
        for w, k in _hop_pairs(np.zeros_like(j), j):
            r = rr[w]
            s, t, ea, eb = a_xy[w], c_xy[w], P[r, at[r, k]], P[r, k + 1]
            crossed[w[_hits(_orient(s, t, ea, eb, eb - ea), s, t, ea, eb)]] = True
        for i in np.flatnonzero(crossed & (a_xy != c_xy).any(axis=1)).tolist():
            r, k = rr[i], j[i]
            ea, eb = P[r, at[r, :k]], P[r, 1 : k + 1]
            attach[i], was_forced = _branch_point(
                node_xy[r], nid[r, 1 : k + 1], nid[r, k], c_xy[i], ea, eb, eb - ea
            )
            forced[r] += was_forced
        a_xy = node_xy[rr, attach]
        old_xy = P[rr, j]
        at[rr, j] = pos[rr, attach]

        # later hops: crossings of the new wire minus those of the old one
        for w, k in _hop_pairs(j + 1, n[rr]):
            r = rr[w]
            s, t = P[r, k], P[r, k + 1]
            a = np.stack((a_xy[w], old_xy[w]))
            b = c_xy[w]
            crossed = _hits(_orient(s, t, a, b, b - a), s, t, a, b, k == j[w] + 1)
            crossings[r, k] += crossed[0].view(np.int8) - crossed[1].view(np.int8)

    r, k = np.nonzero(filled)
    hops = P[r, k + 1] - P[r, at[r, k]]
    length = np.zeros((rows, slots))
    length[r, k] = np.fromiter(map(math.hypot, *hops.T.tolist()), float, r.size)
    return nid[all_rows, at], nid[:, 1:], length, forced


# pairs per orientation band of _tour_crossings, and per _hop_pairs chunk,
# which bound their memory
_BAND = 1 << 13
_PAIRS = 1 << 10


def _hop_pairs(first: np.ndarray, stop: np.ndarray):
    """(i, k) for every i and hop k in [first[i], stop[i]), as index arrays
    of at most _PAIRS pairs."""
    count = stop - first
    which = np.repeat(np.arange(count.size), count)
    hops = np.arange(which.size) + np.repeat(first - np.cumsum(count) + count, count)
    for lo in range(0, which.size, _PAIRS):
        yield which[lo : lo + _PAIRS], hops[lo : lo + _PAIRS]


def _tour_crossings(P: np.ndarray, lives: list[int]) -> np.ndarray:
    """Per row and hop k, the number of earlier tour hops that hop k's wire
    crosses, were every hop laid from its tip (P[:, k] to P[:, k + 1]), in
    bands of about _BAND pairs of hops whose closed bounding boxes meet."""
    rows, width = P.shape[:2]
    slots = width - 2
    crossings = np.zeros((rows, slots), dtype=np.intp)
    Q = P.reshape(-1, 2)
    lo, hi = np.minimum(P[:, :-2], P[:, 1:-1]), np.maximum(P[:, :-2], P[:, 1:-1])
    lox, loy, hix, hiy = lo[..., 0], lo[..., 1], hi[..., 0], hi[..., 1]
    j0 = 1
    while j0 < slots:
        live = lives[j0]
        band = int((math.sqrt(j0 * j0 + 4 * _BAND / live) - j0) / 2)
        j1 = min(slots, j0 + max(1, band))
        # pair (j, i) for hops j in [j0, j1) and i < j
        J, I = (slice(live), slice(j0, j1), None), (slice(live), None, slice(j1 - 1))
        ov = np.arange(j1 - 1) < np.arange(j0, j1)[:, None]
        for a, b in ((lox[J], hix[I]), (lox[I], hix[J]), (loy[J], hiy[I]), (loy[I], hiy[J])):
            ov = ov & (a <= b)
        r, j, i = np.nonzero(ov)
        j += j0
        s, t, a, b = (Q.take(r * width + m, axis=0) for m in (j, j + 1, i, i + 1))
        sg = _orient_points(a, b, s), _orient_points(a, b, t)
        sg += _orient_points(s, t, a), _orient_points(s, t, b)
        hit = _hits(sg, s, t, a, b, i == j - 1)
        np.add.at(crossings, (r[hit], j[hit]), 1)
        j0 = j1
    return crossings


def _orient_points(a: np.ndarray, b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sign(M) of points m against hops a-b, all broadcast to one shape, as
    float32, which holds a sign or NaN exactly."""
    dy = m[..., 1] - a[..., 1]
    dy *= b[..., 0] - a[..., 0]
    dx = m[..., 0] - a[..., 0]
    dx *= b[..., 1] - a[..., 1]
    dy -= dx
    return np.sign(dy, out=np.empty(dy.shape, np.float32))


def _branch_point(
    node_xy: np.ndarray,
    wired: np.ndarray,
    tip: int,
    c_xy: np.ndarray,
    ea: np.ndarray,
    eb: np.ndarray,
    ab: np.ndarray,
) -> tuple[int, bool]:
    """Attachment node for a chain hop to c_xy that is blocked from the tip.

    ``wired`` lists the cell nodes wired so far.  Returns the nearest of
    them or the hub (ties: lower node id) whose wire to c_xy crosses none
    of the wires ea-eb, or, failing that, the nearest node with a
    forced-crossing flag.
    """
    ids = np.concatenate(([0], wired))
    nd = np.hypot(node_xy[ids, 0] - c_xy[0], node_xy[ids, 1] - c_xy[1])
    order = ids[np.lexsort((ids, nd))]
    t, wires = c_xy[None], (ea[None], eb[None], ab[None])
    for nid in order.tolist():
        if nid == tip:
            continue  # already known to cross
        s = node_xy[nid : nid + 1]
        if (s == t).all() or not crosses_any(s, t, *wires)[0]:
            return nid, False
    return int(order[0]), True
