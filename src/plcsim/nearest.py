"""The lockstep nearest-neighbour loop of tree feeders and chain tours, and
`grow_tree`, the tree grower (`plcsim.gridgen` states a grower's contract).

Nodes sit on an integer lattice (`plcsim.deployment`), so a key, the
squared distance ``dx*dx + dy*dy`` of a cell to a node, is an exact integer
in float64, and comparing keys compares distances exactly: every choice is
the exact one, ties included.
"""

from __future__ import annotations

import numpy as np


def grow_nearest(node_xy: np.ndarray, filled: np.ndarray, tree: bool):
    """The node wired at each (row, step), past a row's end its padding in
    order, and for a tree also the node each attaches to.  At step k, every
    row with a cell in slot k wires its free cell of least key (ties: lower
    slot); a tree keeps each cell's key to its nearest wired node (a later
    node takes over only if strictly closer), a tour replaces every key
    with the one to the new tip.  The arguments are a grower's
    (`plcsim.gridgen`)."""
    rows, slots = filled.shape
    # free cells' x, y; a wired cell's x becomes +inf, as a padded slot's is
    F = np.moveaxis(node_xy[:, 1:], 2, 0).copy()
    fx, flat = F[0], F.reshape(2, -1)
    D, key = np.empty_like(F), np.empty((rows, slots))

    def keys(C, out, n):  # the first n rows' keys from the nodes at C, (2, n, 1)
        d = D[:, :n]
        np.copyto(d, C)  # a broadcast subtract would run buffered, slower
        np.subtract(F[:, :n], d, out=d)
        np.square(d, out=d)
        return np.add(d[0], d[1], out=out)

    keys(np.moveaxis(node_xy[:, :1], 2, 0), key, rows)
    if tree:
        near = np.full((rows, slots), -1)  # the nearest node's slot, -1: the hub
    order = np.tile(np.arange(slots), (rows, 1))
    base = np.arange(rows) * slots  # flat index of each row's slot 0

    for k, live in enumerate(filled.sum(axis=0).tolist()):
        K = key[:live]
        c = K.argmin(axis=1)
        f = base[:live] + c
        order[:live, k] = c
        C = flat.take(f, axis=1)[..., None]
        fx.put(f, np.inf)
        if not tree:
            keys(C, K, live)  # the wired cell's key is +inf, from its x
            continue
        key.put(f, np.inf)
        s = keys(C, D[0, :live], live)
        closer = (s < K).ravel().nonzero()[0]
        key.put(closer, s.take(closer))
        near.put(closer, c[closer // slots])
    if not tree:
        return order + 1
    # a wired cell's nearest node is no longer updated: it is where it attached
    return order + 1, near.take(order + base[:, None]) + 1


def grow_tree(node_xy: np.ndarray, filled: np.ndarray):
    """Accretion trees: wire the free cell closest to any wired node (ties:
    lower cell id; equidistant targets: the earliest wired).  Trees never
    cross: forced is 0."""
    child, parent = grow_nearest(node_xy, filled, tree=True)
    return parent, child, np.zeros(len(filled), dtype=np.intp)
