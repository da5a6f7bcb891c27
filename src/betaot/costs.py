"""Cost-matrix construction, threshold heuristics, and budget-aware rescaling.

The outlier tolerance ``z`` can come from the median of the full cost
matrix or from a subsampling heuristic on the clean set
(:func:`estimate_z`).  Because the iteration budget depends on ``z`` only
through ``z/lam``, multiplying the cost matrix and ``z`` by a common
factor moves the budget wherever needed without changing which points
qualify as outliers; :func:`auto_scale` picks that factor.

:class:`SqEuclideanCost` stands for the squared Euclidean cost of two
point clouds, rescaled or not, without forming the m x n matrix.
:func:`auto_scale` rescales it without evaluating it, and
``solver.robust_solve`` walks it in blocks of rows (``cost[a:b]``), as
it walks a dense cost, and keeps only the entries below its certified
level; when those are many, the solver forms the dense matrix and runs
its dense loop.  Every entry has the same bits as in
``scale * sq_euclidean_cost(x, y)``.

Every distance comes from one ``cdist`` call, in
``SqEuclideanCost.__getitem__``, which imports scipy on first use, so
importing this module does not load it.  :func:`sq_euclidean_cost` is
the class's dense matrix; :func:`estimate_z` takes minima block by block.
"""

import copy
import itertools
import math

import numpy as np

from .errors import (
    AutoScaleError,
    BudgetExhaustedError,
    DimensionMismatchError,
    InfeasibleToleranceError,
)
from .solver import _BLOCK_ROWS, SolverConfig, iteration_budget
from .solver import _decrement_sum, _validate_cost

# Offset added to the inverted budget target so the re-evaluated bound
# lands strictly above the integer target instead of exactly on it
# (where the strict-inequality budget would drop by one).
_TARGET_NUDGE = 1e-9

# While d * (max|x| + max|y|)^2, times the scales, stays below this, no
# squared distance can overflow; the margin to the largest float covers
# the roundings of the distances and of the bound itself.
_FINITE_BOUND = 1e300


def _as_points(x) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.size == 0:
        raise DimensionMismatchError("point cloud must be a nonempty 2-D array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point cloud must be finite")
    return pts


def sq_euclidean_cost(x, y) -> np.ndarray:
    """Pairwise squared Euclidean distances between two point clouds."""
    return SqEuclideanCost(x, y).dense()


class SqEuclideanCost:
    """The squared Euclidean cost of two point clouds, evaluated in blocks of rows.

    Holds the two point clouds (nonempty, finite, of one dimension) and
    the scales applied so far, and never the m x n matrix.  ``scaled(s)``
    multiplies it by ``s``; ``cost[a:b]`` evaluates rows ``a`` to
    ``b - 1``, as the same slice of the matrix gives them; ``dense()``
    forms the matrix.  ``cdist`` computes each pair on its own, and each
    scale multiplies each entry once, so an entry from a block has the
    bits of the same entry of ``dense()``.  ``solver.robust_solve`` and
    :func:`auto_scale` accept it.
    """

    def __init__(self, x, y):
        self.x = _as_points(x)
        self.y = _as_points(y)
        if self.x.shape[1] != self.y.shape[1]:
            raise DimensionMismatchError(
                f"point dimensions differ: {self.x.shape[1]} vs {self.y.shape[1]}"
            )
        self.shape = (self.x.shape[0], self.y.shape[0])
        self._scales = ()

    def scaled(self, scale: float) -> "SqEuclideanCost":
        """This cost times ``scale``, without evaluating it."""
        out = copy.copy(self)
        # Times 1.0 every float keeps its bits, so the factor is skipped.
        if scale != 1.0:
            out._scales = self._scales + (scale,)
        return out

    def __getitem__(self, rows: slice) -> np.ndarray:
        from scipy.spatial.distance import cdist

        block = cdist(self.x[rows], self.y, metric="sqeuclidean")
        for scale in self._scales:
            np.multiply(block, scale, out=block)
        return block

    def dense(self) -> np.ndarray:
        """The m x n cost matrix."""
        return self[:]

    def check_finite(self) -> None:
        """Raise ``ValueError`` unless every cost is finite.

        The error is the one ``robust_solve`` raises for a dense cost.
        When the bound ``d * (max|x| + max|y|)^2`` times the scales is
        below :data:`_FINITE_BOUND`, no cost can overflow and nothing is
        evaluated; otherwise the blocks are evaluated and checked.
        """
        reach = float(np.abs(self.x).max()) + float(np.abs(self.y).max())
        bound = self.x.shape[1] * reach * reach
        for scale in self._scales:
            bound *= abs(scale)
        if not bound < _FINITE_BOUND:
            for start in range(0, self.shape[0], _BLOCK_ROWS):
                _validate_cost(self[start:start + _BLOCK_ROWS])


def median_threshold(cost) -> float:
    """Median of all cost entries (midpoint of the central pair when even)."""
    gamma = np.asarray(cost, dtype=float)
    if gamma.size == 0:
        raise ValueError("cost matrix is empty")
    return float(np.median(gamma))


def _nearest_rank(values: np.ndarray, percentile: float) -> float:
    """Nearest-rank percentile: value at rank ceil(p/100 * N) of the sorted list."""
    s = np.sort(values)
    rank = math.ceil(percentile / 100.0 * s.size)
    return float(s[rank - 1])


def estimate_z(clean, percentile: float, seed: int) -> float:
    """Distance-tolerance heuristic from a clean point cloud.

    Shuffles the points with the given seed and splits them into two
    halves (the first floor(k/2) shuffled points become the rows, the
    remaining ceil(k/2) the reference half).  For each row point, takes
    the minimum squared Euclidean distance to the reference half, and
    returns the nearest-rank percentile of those minima.  The distances
    are evaluated ``_BLOCK_ROWS`` rows at a time, never as one matrix.

    Deterministic for a fixed seed and nondecreasing in the percentile.
    """
    pts = _as_points(clean)
    k = pts.shape[0]
    if k < 4:
        raise ValueError(f"need at least 4 clean points, got {k}")
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    perm = np.random.default_rng(seed).permutation(k)
    half = k // 2
    # A block at a time: a minimum does not depend on the order of its terms.
    cost = SqEuclideanCost(pts[perm[:half]], pts[perm[half:]])
    minima = [cost[a:a + _BLOCK_ROWS].min(axis=1) for a in range(0, half, _BLOCK_ROWS)]
    return _nearest_rank(np.concatenate(minima), percentile)


def auto_scale(cost, z: float, cfg: SolverConfig, target_range: tuple[int, int]):
    """Scale the cost matrix and z jointly so the budget lands in a range.

    Solves the budget bound for the scale ``s = lam * (T* D + 1) /
    ((beta - 1) z)`` with ``D = (1/m)^(beta-1) + (1/n)^(beta-1)`` and
    ``T*`` the midpoint of ``target_range`` (a tiny nudge keeps the
    re-evaluated bound strictly above the integer target).  The resulting
    budget is re-checked before returning; if the midpoint misses, every
    integer target in the range is tried.

    Returns ``(scale, scaled_cost, scaled_z)``.  When the unscaled budget
    is already inside the range, returns scale 1 and the inputs unchanged.
    A :class:`SqEuclideanCost` comes back rescaled and still unevaluated.
    """
    lazy = isinstance(cost, SqEuclideanCost)
    gamma = cost if lazy else np.asarray(cost, dtype=float)
    if not lazy and (gamma.ndim != 2 or gamma.size == 0):
        raise DimensionMismatchError("cost must be a nonempty 2-D matrix")
    if not z > 0.0:
        raise ValueError(f"z must be positive, got {z}")
    lo, hi = int(target_range[0]), int(target_range[1])
    if lo > hi or lo < 1:
        raise ValueError(f"target range [{lo}, {hi}] must be nonempty with lo >= 1")
    m, n = gamma.shape

    try:
        if lo <= iteration_budget(z, cfg, m, n).budget <= hi:
            return 1.0, gamma, z
    except (InfeasibleToleranceError, BudgetExhaustedError):
        pass

    beta, lam = cfg.beta, cfg.lam
    decrement_sum = _decrement_sum(beta, m, n)
    midpoint = (lo + hi) / 2.0
    for t_star in itertools.chain([midpoint], range(lo, hi + 1)):
        s = lam * ((t_star + _TARGET_NUDGE) * decrement_sum + 1.0) / ((beta - 1.0) * z)
        if not (s > 0.0 and math.isfinite(s)):
            continue
        try:
            budget = iteration_budget(s * z, cfg, m, n).budget
        except (InfeasibleToleranceError, BudgetExhaustedError):
            continue
        if lo <= budget <= hi:
            return s, gamma.scaled(s) if lazy else s * gamma, s * z
    raise AutoScaleError(
        f"no scale places the iteration budget inside [{lo}, {hi}] "
        f"for beta={beta}, lam={lam}, z={z}, shape=({m}, {n})"
    )
