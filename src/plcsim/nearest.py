"""The lockstep nearest-neighbour loop of tree feeders and chain tours, and
`grow_tree`, the tree grower (`plcsim.gridgen` states a grower's contract).

A distance is ``np.hypot(dx, dy)`` of dx, dy = cell - node, but the loop
compares the squares ``dx*dx + dy*dy`` of the same dx, dy with a relative
margin of 2^-40 (a tree keys on squares times 1 + 2^-40): an argmin stands
when the runner-up's key is more than the margin above the winner's, a tree
update when the two squares differ by more than it; otherwise ``np.hypot``
decides, on the cells inside the margin.  Squares round by a few 2^-53, so
keys more than the margin apart are distances in a ratio above
1 + 2^-41 - 2^-50, a gap that two ``np.hypot`` values within 2^9 ulp
(2^-43 relative; glibc's are within one) of the true distances cannot
close: every choice is the one ``np.hypot`` makes, ties included.  Squares
must neither overflow nor go subnormal, so a batch with a finite coordinate
outside {0} and [2^-400, 2^400] keys on ``np.hypot`` itself, with no margin.
"""

from __future__ import annotations

import numpy as np

_MARGIN = 2.0**-40
_SAFE = (2.0**-400, 2.0**400)


def grow_nearest(node_xy: np.ndarray, filled: np.ndarray, tree: bool):
    """The node wired at each (row, step), past a row's end its padding in
    order, and for a tree also the node each attaches to.  At step k, every
    row with a cell in slot k wires its free cell of least key (ties: lower
    slot); a tree keeps each cell's key to its nearest wired node (a later
    node takes over only if strictly closer), a tour replaces every key
    with the one to the new tip.  The arguments are a grower's
    (`plcsim.gridgen`)."""
    rows, slots = filled.shape
    a = np.abs(node_xy[np.isfinite(node_xy) & (node_xy != 0)])
    exact = a.size and not _SAFE[0] <= a.min() <= a.max() <= _SAFE[1]
    up = 1.0 if exact else 1.0 + _MARGIN
    del a
    # free cells' x, y; a wired cell's x becomes +inf, as a padded slot's is
    F = np.moveaxis(node_xy[:, 1:], 2, 0).copy()
    fx, flat = F[0], F.reshape(2, -1)
    D, key = np.empty_like(F), np.empty((rows, slots))

    def keys(C, out, n):  # the first n rows' keys from the nodes at C, (2, n, 1)
        d = D[:, :n]
        np.copyto(d, C)  # a broadcast subtract would run buffered, slower
        np.subtract(F[:, :n], d, out=d)
        if exact:
            return np.hypot(d[0], d[1], out=out)
        np.square(d, out=d)
        return np.add(d[0], d[1], out=out)

    keys(np.moveaxis(node_xy[:, :1], 2, 0), key, rows)
    if tree:
        key *= up
        near = np.full((rows, slots), -1)  # the nearest node's slot, -1: the hub
    order = np.tile(np.arange(slots), (rows, 1))
    base = np.arange(rows) * slots  # flat index of each row's slot 0

    for k, live in enumerate(filled.sum(axis=0).tolist()):
        K = key[:live]
        c = K.argmin(axis=1)
        f = base[:live] + c
        # keys within the margin of each row's least; np.hypot ranks two or more
        within = K <= key.take(f)[:, None] * up
        if np.count_nonzero(within) > live:
            t = np.flatnonzero(np.count_nonzero(within, axis=1) > 1)
            i, j = np.nonzero(within[t])
            g, ti = base[t[i]] + j, t[i]
            src = near.take(g) + 1 if tree else (order[ti, k - 1] + 1 if k else 0)
            d = np.full((t.size, slots), np.inf)
            d[i, j] = np.hypot(fx.take(g) - node_xy[ti, src, 0], F[1].take(g) - node_xy[ti, src, 1])
            c[t] = d.argmin(axis=1)
            f = base[:live] + c
        order[:live, k] = c
        C = flat.take(f, axis=1)[..., None]
        fx.put(f, np.inf)
        if not tree:
            keys(C, K, live)  # the wired cell's key is +inf, from its x
            continue
        key.put(f, np.inf)
        s = keys(C, D[0, :live], live)
        cand = (s < K).ravel().nonzero()[0]
        sq = s.take(cand) * up
        sure = sq * up < key.take(cand)
        if not np.logical_and.reduce(sure):
            # np.hypot from the new node against from the nearest one
            u = cand[~sure]
            ur, src = u // slots, near.take(u) + 1
            ux, uy = fx.take(u), F[1].take(u)
            sure[~sure] = np.hypot(ux - C[0, ur, 0], uy - C[1, ur, 0]) < np.hypot(
                ux - node_xy[ur, src, 0], uy - node_xy[ur, src, 1]
            )
            cand, sq = cand[sure], sq[sure]
        key.put(cand, sq)
        near.put(cand, c[cand // slots])
    if not tree:
        return order + 1
    # a wired cell's nearest node is no longer updated: it is where it attached
    return order + 1, near.take(order + base[:, None]) + 1


def grow_tree(node_xy: np.ndarray, filled: np.ndarray):
    """Accretion trees: wire the free cell closest to any wired node (ties:
    lower cell id; equidistant targets: the earliest wired), each hop as long
    as the ``np.hypot`` distance that chose it.  Trees never cross: forced is 0."""
    child, parent = grow_nearest(node_xy, filled, tree=True)
    rows = np.arange(len(filled))[:, None]
    hop = node_xy[rows, child] - node_xy[rows, parent]  # +inf past a row's end
    return parent, child, np.hypot(hop[..., 0], hop[..., 1]), np.zeros(len(filled), dtype=np.intp)
