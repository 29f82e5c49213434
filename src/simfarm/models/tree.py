"""CART-style binary decision trees (greedy, depth/leaf-size stopped).

Regression splits minimize summed squared error, classification splits
minimize weighted Gini impurity; thresholds sit midway between consecutive
distinct feature values, both children must hold ``min_leaf`` rows, and ties
break toward the lower feature index and threshold.  No cut sits beside inf
or NaN or where the two values' sum overflows, so no child is empty.

One engine, :func:`grow_trees`, grows every tree, one or many at a time, in
rounds.  It takes a stack of same-shape problems, such as the k CV folds of
one configuration, so ``CartTree.fit_stack`` and ``RandomForest.fit_stack``
grow all the trees of all the folds in one call, and ``fit`` is the stack of
one.  No score or node value depends on which other trees share a round, so
each tree is the same as when grown alone.  Each tree keeps the rows of its
sample once per feature in sorted order and once in sample order; a node is
a ``[start, end)`` segment of those lists that a stable partition splits in
place, so a child keeps its parent's order, which is the stable sort of the
child's own rows.  A round scores every pending node whose feature subset is
known, over all trees, with one kernel call per group of similar-sized
nodes: every cut of every candidate feature comes from prefix sums
(``cumsum`` adds in row order, so the scores are those of a sequential
scan).  Without feature draws all pending nodes are known, so the trees grow
level by level.  A tree that draws a feature subset per node takes its draws
in preorder, as a recursive build would, so it splits only its next preorder
node per round, and the trees of a forest advance in lockstep.  Node ids are
put back into preorder at the end, so a tree is the same, node for node and
bit for bit, as the recursive build's.  A tree keeps its nodes as int32 and
float64 arrays.  Prediction walks all rows down the tree one level at a
time.
"""

from __future__ import annotations

import copy

import numpy as np

from ..errors import ModelFormatError, TrainingError
from ..schema import fail, integer, obj, reporting
from .preprocess import fit_data
from .state import STATE_CLASSES, STATE_TASK, array, hyperparameters, state_classes
from .state import state_lengths

__all__ = ["CartTree", "feature_draws", "fit_stack_data", "grow_trees"]

# cells (node rows x features x classes) in one split-search or partition call
_SPLIT_BLOCK = 1 << 13
# padding cells a kernel call may add beyond doubling its cells
_PAD_CELLS = 1 << 11
# row ids (int32) that one batch of trees holds: (p + 1) * n per tree, 4 MiB in all;
# a batch may hold trees of several problems of a stack, and its other per-row
# arrays are sized by its trees and one problem's rows, never by the whole stack
_BATCH_IDS = 1 << 20
_FIRST_DRAWS = 64  # feature-subset rows drawn per tree before the first refill


def feature_draws(rng: np.random.Generator, p: int, m: int, rows: int) -> np.ndarray:
    """``rows`` successive ``np.sort(rng.choice(p, m, replace=False))`` as a (rows, m) table.

    ``Generator.choice`` without replacement runs Floyd's selection, one
    bounded integer in ``[0, j]`` for ``j = p - m .. p - 1``, and then
    shuffles the result with one bounded integer in ``[0, i]`` for
    ``i = m - 1 .. 1``.  Both use the generator's ``integers`` algorithm, so
    one ``integers`` call over those bounds leaves the stream where ``rows``
    calls to ``choice`` would; the shuffle draws are ignored, because the
    subset is sorted.  For ``p > 10000`` and ``m > p // 50`` NumPy takes
    another path, so the table is filled row by row.
    """
    if p > 10_000 and m > p // 50:
        return np.array([np.sort(rng.choice(p, m, replace=False)) for _ in range(rows)],
                        dtype=np.int64).reshape(rows, m)
    highs = np.concatenate([np.arange(p - m + 1, p + 1), np.arange(m, 1, -1)])
    draws = rng.integers(0, np.tile(highs, rows)).reshape(rows, len(highs))
    chosen = np.zeros((rows, p), dtype=bool)
    every = np.arange(rows)
    for s, j in enumerate(range(p - m, p)):
        v = draws[:, s]
        v = np.where(chosen[every, v], j, v)  # a value already taken puts j in instead
        chosen[every, v] = True
    return np.nonzero(chosen)[1].reshape(rows, m)


def _groups(sizes: np.ndarray, width: int):
    """Groups of node indices for one kernel call each, with their padded length.

    Nodes are taken largest first and a group is padded to its first node's
    size.  A group holds at most ``_SPLIT_BLOCK`` cells of ``width`` per row,
    or else just one node, and its padding at most doubles its cells or adds
    at most ``_PAD_CELLS``: a call costs about as much as that many cells.
    """
    order = np.argsort(-sizes, kind="stable")
    ranked = sizes[order]
    before = np.cumsum(ranked) - ranked
    lo = 0
    while lo < len(order):
        length = int(ranked[lo])
        k = np.arange(1, len(order) - lo + 1)
        padded = k * length
        rows = before[lo:] + ranked[lo:] - before[lo]  # rows of the first k nodes
        fits = ((padded <= 2 * rows) | ((padded - rows) * width <= _PAD_CELLS)) & (
            padded * width <= _SPLIT_BLOCK)
        hi = lo + max(1, int(np.argmin(fits)) if not fits[-1] else len(k))
        yield order[lo:hi], length
        lo = hi


def _runs(cells: np.ndarray):
    """Consecutive slices of nodes with at most ``_SPLIT_BLOCK`` cells, or one node each."""
    ends = np.cumsum(cells)
    lo = 0
    while lo < len(cells):
        hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - cells[lo] + _SPLIT_BLOCK, "right")))
        yield slice(lo, hi)
        lo = hi


# columns of a node array: one row per node
_ID, _TREE, _START, _SIZE, _DEPTH = range(5)


class _Batch:
    """The row lists of one batch of trees being grown, and the nodes made so far."""

    def __init__(self, X, y, N, samples, base, max_depth, min_leaf, n_classes):
        self.X_flat = X.reshape(-1)
        self.p = p = X.shape[1]
        self.n = n = samples.shape[1]
        self.T = T = len(samples)
        self.max_depth, self.min_leaf, self.n_classes = max_depth, min_leaf, n_classes
        self.y = y
        # row lists: (t, f) holds the rows of X in tree t's sample (a row drawn twice is
        # there twice) stably sorted by feature f; list p holds them in sample order
        rows = np.empty((T, p + 1, n), dtype=np.int32)
        rows[:, p] = samples
        rows[:, p] += base[:, None]  # a tree's problem starts at row base of X
        for t in range(T):
            sample = rows[t, p]
            for f in range(p):
                rows[t, f] = sample[np.argsort(X[sample, f], kind="stable")]
        self.rows = rows.reshape(-1)
        # by tree and row of its own problem, so a batch holds T * N flags, however many
        # problems X stacks; row r of tree t sits at shift[t] + r
        self.goes_left = np.zeros(T * N, dtype=bool)
        self.shift = np.arange(T) * N - base
        self.count = 0
        self.made = []  # (tree, depth, value) of each settled group of nodes, in id order
        self.splits = []  # (id, feature, threshold, left child id) of each round's splits

    def new_nodes(self, tree, start, size, depth) -> np.ndarray:
        """A node array for new nodes, with the next free ids."""
        nodes = np.empty((len(tree), 5), dtype=np.int64)
        nodes[:, _ID] = np.arange(self.count, self.count + len(tree))
        nodes[:, _TREE], nodes[:, _START], nodes[:, _SIZE], nodes[:, _DEPTH] = tree, start, size, depth
        self.count += len(tree)
        return nodes

    def _node_runs(self, nodes, row):
        """``(run, offsets, sizes, rows)`` per run of nodes with at most ``_SPLIT_BLOCK`` rows:
        the run's rows of X, node by node in the order of row list ``row``, and where each
        node starts among them."""
        tree, start, size = nodes[:, _TREE], nodes[:, _START], nodes[:, _SIZE]
        for run in _runs(size):
            sizes = size[run]
            offsets = np.cumsum(sizes) - sizes
            at = np.repeat((tree[run] * (self.p + 1) + row) * self.n + start[run] - offsets, sizes)
            at += np.arange(len(at))
            yield run, offsets, sizes, self.rows[at].astype(np.int64)

    def settle(self, nodes: np.ndarray) -> np.ndarray:
        """Record new nodes with their values; return the mask of those to split."""
        value = np.empty(len(nodes))
        pure = np.empty(len(nodes), dtype=bool)
        for run, offsets, sizes, rows in self._node_runs(nodes, self.p):  # in sample order
            ys = self.y[rows]
            k = len(sizes)
            node = np.repeat(np.arange(k), sizes)
            if self.n_classes:
                counts = np.bincount(node * self.n_classes + ys, minlength=k * self.n_classes)
                counts = counts.reshape(k, self.n_classes)
                value[run] = counts.argmax(axis=1)  # ties to the smallest class code
                pure[run] = counts.max(axis=1) == sizes
            else:
                # one pairwise sum per node: batched sums round differently from y.mean()
                value[run] = [np.add.reduce(ys[o : o + s]) / s
                              for o, s in zip(offsets.tolist(), sizes.tolist())]
                differ = ys != ys[np.repeat(offsets, sizes)]  # from the node's first row
                pure[run] = np.bincount(node, weights=differ, minlength=k) == 0
        self.made.append((nodes[:, _TREE].astype(np.int32), nodes[:, _DEPTH].astype(np.int32), value))
        return ~(pure | (nodes[:, _DEPTH] >= self.max_depth) | (nodes[:, _SIZE] < 2 * self.min_leaf))

    # -- split search --------------------------------------------------------

    def _score(self, tree, start, size, feats, width):
        """``(score, feature, threshold)`` of each node's best legal cut; score inf if none.

        Cut ``i`` puts the first ``i + 1`` rows of a feature's order on the
        left; only cuts leaving ``min_leaf`` rows on each side and falling
        between distinct values are scored.  Cells past a node's end hold
        other nodes' rows and are masked out.  Temporaries are reused in
        place, because the cells of one call bound the fit's memory.
        """
        n, p = self.n, self.p
        G, m = feats.shape
        at = ((tree[:, None] * (p + 1) + feats) * n)[:, :, None] + np.minimum(
            start[:, None] + np.arange(width), n - 1)[:, None, :]
        at = self.rows[at].astype(np.int64)
        ys = self.y[at]
        at *= p
        at += feats[:, :, None]
        xs = self.X_flat[at]
        del at
        cut = np.arange(width - 1)
        nl = cut + 1.0
        nr = size[:, None, None] - nl
        last = (np.arange(G * m), np.repeat(size - 1, m))  # each row's total sits at size - 1
        if self.n_classes:
            # one count array per class, so the inner loops run along the rows
            counts = (ys == np.arange(self.n_classes)[:, None, None, None]).cumsum(axis=3)
            del ys
            total = counts.reshape(-1, G * m, width)[(slice(None),) + last].reshape(-1, G, m, 1)
            left = counts[..., :-1]
            # sums of squared counts are exact integers, so their order is free
            sl = (left * left).sum(axis=0)
            right = np.subtract(total, left, out=left)
            right *= right
            sr = right.sum(axis=0)
            del counts, left, right
            score = nl * (1.0 - sl / (nl * nl)) + nr * (1.0 - sr / (nr * nr))
        else:
            left = ys.cumsum(axis=2)
            ys *= ys
            left_sq = ys.cumsum(axis=2)
            del ys
            total = left.reshape(G * m, width)[last].reshape(G, m, 1)
            total_sq = left_sq.reshape(G * m, width)[last].reshape(G, m, 1)
            left, left_sq = left[:, :, :-1], left_sq[:, :, :-1]
            # (left_sq - left * left / nl) + (right_sq - right * right / nr)
            score = np.multiply(left, left)
            score /= nl
            np.subtract(left_sq, score, out=score)
            right = np.subtract(total, left, out=left)
            right_sq = np.subtract(total_sq, left_sq, out=left_sq)
            right *= right
            right /= nr
            np.subtract(right_sq, right, out=right)
            score += right
            del left, left_sq, right, right_sq
            np.maximum(score, 0.0, out=score)  # rounding can leave an SSE just below 0
        # legal only where x_i <= t < x_i+1, as ``x <= t`` will split the rows
        with np.errstate(over="ignore", invalid="ignore"):
            mid = 0.5 * (xs[:, :, :-1] + xs[:, :, 1:])
        bad = ~((xs[:, :, :-1] <= mid) & (mid < xs[:, :, 1:]))
        bad[:, :, : self.min_leaf - 1] = True
        bad |= cut >= (size - self.min_leaf)[:, None, None]
        bad |= np.isnan(score)  # a NaN score must lose, like an inf one
        score[bad] = np.inf
        score = score.reshape(G, -1)
        # row-major argmin: lowest feature first, then lowest threshold
        best = score.argmin(axis=1)
        g = np.arange(G)
        r, i = np.divmod(best, width - 1)
        thr = 0.5 * (xs[g, r, i] + xs[g, r, i + 1])
        return score[g, best], feats[g, r], thr

    def search(self, tree, start, size, feats):
        """Best ``(feature, threshold)`` of each node, and the mask of nodes with one."""
        m = feats.shape[1]
        classes = max(1, self.n_classes)
        score = np.empty(len(tree))
        feature = np.empty(len(tree), dtype=np.int64)
        thr = np.empty(len(tree))
        for g, width in _groups(size, m * classes):
            # a node too large for one call is scored in feature blocks; a
            # later block wins only with a strictly lower score (lower feature on a tie)
            step = m if len(g) > 1 else max(1, _SPLIT_BLOCK // (width * classes))
            for lo in range(0, m, step):
                found = self._score(tree[g], start[g], size[g], feats[g, lo : lo + step], width)
                if lo == 0 or found[0][0] < score[g[0]]:
                    score[g], feature[g], thr[g] = found
        return feature, thr, score < np.inf

    # -- partition -------------------------------------------------------------

    def partition(self, nodes, feature, thr) -> np.ndarray:
        """Split each node's segment of every row list stably, left rows first; return the left sizes."""
        n, p = self.n, self.p
        n_left = np.empty(len(nodes), dtype=np.int64)
        for run, offsets, sizes, rows in self._node_runs(nodes, p):
            lefts = self.X_flat[rows * p + np.repeat(feature[run], sizes)] <= np.repeat(thr[run], sizes)
            rows += np.repeat(self.shift[nodes[run, _TREE]], sizes)
            self.goes_left[rows] = lefts
            ranks = np.cumsum(lefts)
            n_left[run] = ranks[offsets + sizes - 1] - ranks[offsets] + lefts[offsets]
        # one segment per (node, row list), taken in runs of bounded size
        tree, start = nodes[:, _TREE], nodes[:, _START]
        node = np.repeat(np.arange(len(nodes)), p + 1)
        lens = nodes[node, _SIZE]
        heads = (tree[node] * (p + 1) + np.tile(np.arange(p + 1), len(nodes))) * n + start[node]
        for run in _runs(lens):
            sizes = lens[run]
            offsets = np.cumsum(sizes) - sizes
            within = np.arange(int(sizes.sum()))
            within -= np.repeat(offsets, sizes)
            head = np.repeat(heads[run], sizes)
            seg = self.rows[head + within]
            left = self.goes_left[np.repeat(self.shift[tree[node[run]]], sizes) + seg]
            rank = np.cumsum(left)
            rank -= left
            rank -= np.repeat(rank[offsets], sizes)  # lefts before a row in its segment
            # a left row goes to its rank among the lefts, a right row after all lefts
            within -= rank
            within += np.repeat(n_left[node[run]], sizes)
            np.copyto(within, rank, where=left)
            head += within
            self.rows[head] = seg
        return n_left

    # -- output ------------------------------------------------------------------

    def trees(self) -> list[tuple[np.ndarray, ...]]:
        """Each tree's ``(feature, threshold, left, right, value)`` arrays in preorder.

        The arrays of one tree are slices of arrays shared by the batch.  Each
        round's pieces are freed as they are copied out, and each array is
        put into preorder on its own, so about two copies of the node data
        are alive at once.
        """
        del self.rows, self.goes_left  # the arrays below are built without them
        k = self.count
        tree, depth, value = np.empty(k, dtype=np.int32), np.empty(k, dtype=np.int32), np.empty(k)
        end = k
        while self.made:  # in id order, so the last piece ends at k
            piece = self.made.pop()
            lo = end - len(piece[0])
            tree[lo:end], depth[lo:end], value[lo:end] = piece
            end = lo
        feature, threshold = np.full(k, -1, dtype=np.int32), np.zeros(k)
        left = np.full(k, -1, dtype=np.int32)
        while self.splits:
            ids, *split = self.splits.pop()
            feature[ids], threshold[ids], left[ids] = split
        inner = left >= 0
        right = left + 1  # children are made in pairs
        span = np.ones(k, dtype=np.int32)  # nodes in each subtree
        for d in range(int(depth.max()), -1, -1):
            at = np.flatnonzero(inner & (depth == d))
            span[at] += span[left[at]] + span[right[at]]
        pre = np.zeros(k, dtype=np.int32)  # preorder rank within the tree
        for d in range(int(depth.max()) + 1):
            at = np.flatnonzero(inner & (depth == d))
            pre[left[at]] = pre[at] + 1
            pre[right[at]] = pre[at] + 1 + span[left[at]]
        del depth, span
        left = np.where(inner, pre[left], -1)
        right = np.where(inner, pre[right], -1)
        del inner
        counts = np.bincount(tree, minlength=self.T)
        ends = np.cumsum(counts)
        pre += (ends - counts)[tree]  # each node's place among the batch's nodes
        del tree
        arrays = []
        for a in (feature, threshold, left, right, value):
            arrays.append(np.empty_like(a))
            arrays[-1][pre] = a
        ends = ends.tolist()
        return [tuple(a[lo:hi] for a in arrays) for lo, hi in zip([0, *ends[:-1]], ends)]


def _grow_batch(X, y, N, samples, base, streams, m, max_depth, min_leaf, n_classes):
    batch = _Batch(X, y, N, samples, base, max_depth, min_leaf, n_classes)
    T, n, p = batch.T, batch.n, batch.p
    roots = batch.new_nodes(np.arange(T), 0, n, 0)
    todo = roots[batch.settle(roots)]
    draws = m < p
    if draws:
        stacks = [[] for _ in range(T)]  # per tree, the nodes to split, next preorder node on top
        for node in todo.tolist():
            stacks[node[_TREE]].append(node)
        table = np.empty((T, 0, m), dtype=np.int32)
        used = np.zeros(T, dtype=np.int64)
    while True:
        if draws:
            ready = np.array([s.pop() for s in stacks if s], dtype=np.int64).reshape(-1, 5)
        else:
            ready = todo
        if not len(ready):
            break
        tree = ready[:, _TREE]
        if draws:
            if used[tree].max() >= table.shape[1]:
                more = max(_FIRST_DRAWS, table.shape[1])
                table = np.concatenate(
                    [table, np.stack([feature_draws(rng, p, m, more) for rng in streams])],
                    axis=1, dtype=np.int32)
            feats = table[tree, used[tree]]
            used[tree] += 1
        else:
            feats = np.broadcast_to(np.arange(p), (len(ready), p))
        feature, thr, found = batch.search(tree, ready[:, _START], ready[:, _SIZE], feats)
        if not found.any():
            if draws:
                continue
            break
        split, feature, thr = ready[found], feature[found], thr[found]
        n_left = batch.partition(split, feature, thr)
        tree, start, size = split[:, _TREE], split[:, _START], split[:, _SIZE]
        depth = split[:, _DEPTH] + 1
        # children in pairs, each left one first: a right child's id is its sibling's plus one
        kids = batch.new_nodes(np.repeat(tree, 2), np.stack([start, start + n_left], axis=1).ravel(),
                               np.stack([n_left, size - n_left], axis=1).ravel(), np.repeat(depth, 2))
        batch.splits.append((split[:, _ID].astype(np.int32), feature.astype(np.int32), thr,
                             kids[::2, _ID].astype(np.int32)))
        grow = batch.settle(kids)
        if draws:
            for node, go in zip(kids[::-1].tolist(), grow[::-1].tolist()):
                if go:  # right child pushed first, so the left one comes off next
                    stacks[node[_TREE]].append(node)
        else:
            todo = kids[grow]
    return batch.trees()


def grow_trees(X, y, samples, streams=None, m=None, max_depth=8, min_leaf=1, n_classes=0):
    """Grow T trees on each of K problems; return each tree's node arrays in preorder.

    ``X`` is a (K, N, p) stack of problems and ``y`` their (K, N) float
    targets, or class codes ``0 .. n_classes - 1`` when ``n_classes`` is set.
    ``samples`` is a (K, T, n) array: ``samples[k, t]`` holds the rows of
    ``X[k]`` that tree t of problem k trains on (a bootstrap draw, or every
    row).  Trees come back in that order, problem by problem.  A node splits
    on the best of ``m`` features drawn as ``np.sort(streams[i].choice(p, m,
    replace=False))`` for tree ``i`` in that order, in preorder; with ``m``
    equal to ``p`` (the default) every feature is tried and nothing is drawn.
    A tree is the same whatever other trees and problems grow beside it.
    Trees are grown in batches of about ``_BATCH_IDS`` row ids.
    """
    X = np.asarray(X, dtype=np.float64)
    K, N, p = X.shape
    X = X.reshape(K * N, p)
    y = np.asarray(y, dtype=np.int64 if n_classes else np.float64).reshape(K * N)
    _, T, n = samples.shape
    samples = samples.reshape(K * T, n)
    base = np.repeat(np.arange(K) * N, T)  # the first row of each tree's problem in X
    m = p if m is None else m
    per_batch = max(1, _BATCH_IDS // ((p + 1) * n))
    out = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for lo in range(0, K * T, per_batch):
            at = slice(lo, lo + per_batch)
            out += _grow_batch(X, y, N, samples[at], base[at],
                               None if streams is None else streams[at],
                               m, max_depth, min_leaf, n_classes)
    return out


def fit_stack_data(task: str, X, y) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``fit_data`` for a stack of K problems: ``X`` (K, n, p), ``y`` (K, n) and the classes.

    A classification ``y`` comes back as class codes.  All problems must
    hold the same set of classes.
    """
    problems = [fit_data(task, x, yk) for x, yk in zip(X, y, strict=True)]
    classes = problems[0][2]
    if any(not np.array_equal(problem[2], classes) for problem in problems[1:]):
        raise TrainingError("stacked problems must hold the same classes")
    X, y = (np.stack([problem[j] for problem in problems]) for j in (0, 1))
    return X, y if classes is None else np.searchsorted(classes, y), classes


class CartTree:
    HYPERPARAMETERS = {"max_depth": integer(ge=1), "min_leaf": integer(ge=1)}

    def __init__(self, max_depth: int = 8, min_leaf: int = 1, task: str = "regression"):
        self.max_depth, self.min_leaf = hyperparameters(
            self, "cart_tree", max_depth=max_depth, min_leaf=min_leaf)
        self.task = task
        # parallel node arrays in preorder; children are node ids, -1 marks a leaf
        self.feature = self.left = self.right = np.empty(0, dtype=np.int32)
        self.threshold = self.value = np.empty(0)
        self.classes_: np.ndarray | None = None

    def set_nodes(self, nodes: tuple[np.ndarray, ...]) -> "CartTree":
        self.feature, self.threshold, self.left, self.right, self.value = nodes
        return self

    def fit(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> "CartTree":
        """Grow the tree; the fit is deterministic, so ``seed`` is ignored."""
        (fitted,) = self.fit_stack(np.asarray(X)[None], np.asarray(y)[None], seed)
        vars(self).update(vars(fitted))
        return self

    def fit_stack(self, X: np.ndarray, y: np.ndarray, seed: int = 0) -> list["CartTree"]:
        """Fit K problems of one shape, ``X`` (K, n, p) and ``y`` (K, n), at once.

        Tree k is byte-identical to ``fit(X[k], y[k])``.  In classification
        all problems must hold the same set of classes.
        """
        X, y, classes = fit_stack_data(self.task, X, y)
        K, n, _ = X.shape
        samples = np.broadcast_to(np.arange(n, dtype=np.int32), (K, 1, n))
        grown = grow_trees(X, y, samples, max_depth=self.max_depth, min_leaf=self.min_leaf,
                           n_classes=0 if classes is None else len(classes))
        trees = []
        for nodes in grown:
            tree = copy.copy(self).set_nodes(nodes)
            tree.classes_ = classes
            trees.append(tree)
        return trees

    # -- prediction --------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not len(self.feature):
            raise TrainingError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        leaf = self.feature < 0
        own = np.arange(len(leaf))
        # a leaf tests feature 0 and leads back to itself, so finished rows stay put
        feature = np.where(leaf, 0, self.feature)
        left = np.where(leaf, own, self.left)
        right = np.where(leaf, own, self.right)
        rows = np.arange(len(X))
        node = np.zeros(len(X), dtype=np.int64)
        while not leaf[node].all():  # one tree level per pass
            node = np.where(X[rows, feature[node]] <= self.threshold[node], left[node], right[node])
        out = self.value[node]
        if self.task == "classification":
            return self.classes_[out.astype(np.int64)]
        return out

    def to_state(self) -> dict:
        return {
            "max_depth": self.max_depth,
            "min_leaf": self.min_leaf,
            "task": self.task,
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "classes": None if self.classes_ is None else self.classes_.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict, n_features: int | None = None) -> "CartTree":
        """Rebuild from :meth:`to_state`; ``n_features`` is the row width to expect, if known."""
        with reporting(ModelFormatError, "model file"):
            return cls.from_checked(STATE(state, ("state",)), ("state",), n_features)

    @classmethod
    def from_checked(cls, s: dict, path: tuple, n_features: int | None) -> "CartTree":
        """A tree from a state that passed ``STATE`` at ``path``, once its nodes are sound.

        The node arrays are equally long.  A leaf has ``left``, ``right`` and
        ``feature`` -1.  An inner node's children come after it and before
        the end, so every walk from the root ends at a leaf, and its feature
        lies in ``[0, n_features)``.  A classifier's values are class indices.
        """
        classes = state_classes(s, path)
        feature, left, right, value = s["feature"], s["left"], s["right"], s["value"]
        n = len(feature)
        if not n:
            fail((*path, "feature"), "a list of 1 or more items", feature, typed=True)
        state_lengths(s, path, "feature", ("threshold", "left", "right", "value"))
        node, leaf = np.arange(n), left == -1
        top = np.inf if n_features is None else n_features
        within = "[0, the row width)" if n_features is None else f"[0, {n_features})"
        checks = [
            ("feature", np.where(leaf, feature != -1, (feature < 0) | (feature >= top)),
             f"-1 at a leaf and in {within} at an inner node"),
            ("left", ~leaf & ((left <= node) | (left >= n)),
             f"-1 or a node index after its own and below {n}"),
            ("right", np.where(leaf, right != -1, (right <= node) | (right >= n)),
             f"-1 where 'left' is -1, else a node index after its own and below {n}"),
        ]
        if classes is not None:
            index = (value >= 0) & (value < len(classes)) & (value == np.floor(value))
            checks.append(("value", ~index, f"a class index in [0, {len(classes)})"))
        for key, bad, what in checks:
            if bad.any():
                i = int(np.argmax(bad))
                fail((*path, key, i), what, s[key][i], typed=True)
        tree = cls(max_depth=s["max_depth"], min_leaf=s["min_leaf"], task=s["task"])
        tree.set_nodes((feature, s["threshold"], left, right, value))
        tree.classes_ = classes
        return tree


STATE = obj({**CartTree.HYPERPARAMETERS, "task": STATE_TASK, "feature": array(np.int64),
             "threshold": array(np.float64), "left": array(np.int64), "right": array(np.int64),
             "value": array(np.float64), "classes": STATE_CLASSES})
