"""Sampling and measuring the dynamical sets.

Base Julia sets by inverse iteration; escape-time grids of fiber slices
and of the base plane, which stop iterating cells caught by certified
trapping disks; fiber Julia samples by pullback along the forward base
orbit; the two-variable Julia set by inverse iteration of (z, w) together,
random-branch chains that split into complete preimage trees; a
duplicate-aware nearest-neighbour index for Hausdorff and chordal distances
between point clouds; and CSV and image output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count

import numpy as np
import numpy.polynomial.polynomial as npoly

from .engine import (EscapeParams, GRID_MAX_ITER, Rect, _trap_chains,
                     derive_escape_radius)
from .errors import NumericalError, PreconditionError
from .poly import Poly1, SkewProduct, _horner, fiber_poly, roots

__all__ = [
    "PointCloud",
    "FiberSlice",
    "sample_base_julia",
    "sample_fiber_julia",
    "fiber_slice",
    "base_slice",
    "sample_J2_inverse",
    "CloudIndex",
    "hausdorff_distance",
    "directed_hausdorff",
    "cloud_to_csv",
    "slice_to_pgm",
    "slice_to_ppm",
    "sphere_embed",
    "min_chordal_distance",
]


@dataclass(frozen=True)
class PointCloud:
    """Finite sample of a dynamical set; dim-1 points are complex, dim-2
    points are rows (z, w).

    Without `inverse` the points are the sample's rows.  A sample that is
    mostly repeats (`critpost.postcritical_cloud`) is stored as its
    byte-distinct rows, in order of first occurrence, in `points`, and an
    `inverse` over the full row sequence: row k is points[inverse[k]].
    `len` counts rows either way; set distances read `points` alone.
    """

    points: np.ndarray
    seed: int = 0
    inverse: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=complex))

    @property
    def dim(self) -> int:
        return 1 if self.points.ndim == 1 else 2

    def __len__(self) -> int:
        return len(self.points if self.inverse is None else self.inverse)


@dataclass(frozen=True)
class FiberSlice:
    z: complex | None          # None for the base plane (base_slice)
    window: Rect
    nx: int
    ny: int
    escape_iters: np.ndarray   # int (ny, nx), 0 where bounded

    @property
    def membership(self) -> np.ndarray:
        """bool (ny, nx), True = bounded."""
        return self.escape_iters == 0

    def cell_width(self) -> float:
        return (self.window.re_max - self.window.re_min) / self.nx

    def centers(self):
        w = self.window
        xs = w.re_min + (np.arange(self.nx) + 0.5) * (w.re_max - w.re_min) / self.nx
        ys = w.im_min + (np.arange(self.ny) + 0.5) * (w.im_max - w.im_min) / self.ny
        X, Y = np.meshgrid(xs, ys)
        return X + 1j * Y


def _square(b: np.ndarray) -> np.ndarray:
    """b * b for each element, each part from two rounded products, as
    numpy rounds the product of two complex scalars (its array loop may fuse
    a multiply and an add instead)."""
    out = np.empty_like(b)
    out.real = b.real * b.real - b.imag * b.imag
    out.imag = b.real * b.imag + b.imag * b.real
    return out


def _branch(c, values, k=None) -> np.ndarray:
    """Branch k of g(x) = v for each value v, k broadcasting with the
    values: at degree 2 the + (k = 0) or - (k = 1) square root of the
    quadratic formula, above it row k of the `roots` order.  With k None,
    every branch, on a new axis before the last axis of the values: (d, n)
    for n values, row k holding branch k.

    c holds the d + 1 coefficients of g, lowest first: a vector, or a table
    whose other axes broadcast with the values, (d + 1, n) with one
    polynomial per value (J2's fiber maps) or (d + 1, m, 1) with one per row
    of (m, n) values.  An element takes the operations of a call with its
    own vector, so it has the same bits, except that a per-value table
    squares b with numpy's array loop, as J2's fiber step always has.
    """
    per_value = np.ndim(c) == 2
    if k is None:
        values = np.expand_dims(values, -2)
        if np.ndim(c) > 1:
            c = np.expand_dims(c, -2)
    d = len(c) - 1
    if d == 2:
        a, b, c0 = c[2], c[1], c[0]
        # a finite map with huge coefficients (over an escaping base orbit)
        # overflows to inf and NaN, as `_fiber_tables` evaluating it may
        with np.errstate(over="ignore", invalid="ignore"):
            bb = b * b if per_value else _square(b)
            disc = np.sqrt(bb - 4.0 * a * (c0 - values))
            x = (np.concatenate([-b + disc, -b - disc], axis=-2)
                 if k is None else np.where(k == 0, -b + disc, -b - disc))
            x /= 2.0 * a
        return x
    cols, vals = np.broadcast_arrays(np.moveaxis(c, 0, -1),
                                     np.expand_dims(values, -1))
    out = np.empty(vals.shape[:-1] + (d,), dtype=complex)
    for i in np.ndindex(out.shape[:-1]):
        shifted = cols[i].copy()
        shifted[0] -= vals[i][0]
        out[i] = roots(Poly1(shifted))
    out = np.moveaxis(out, -1, 0)
    return np.concatenate(out, axis=-2) if k is None else np.choose(k, out)


def _tree_levels(d: int, n: int) -> int:
    """The least L with d^L >= n: the levels of a complete degree-d
    preimage tree that holds n points."""
    return next(L for L in count() if d ** L >= n)


def _pullback(tables: np.ndarray, w: np.ndarray, n_random: int,
              n_points: int, rngs) -> list:
    """Pull the start point w[j] of each row j back through its maps, and
    keep n_points of its points (all, if fewer): one array per row.

    tables is (levels, d + 1, m), level i holding row j's i-th map in
    column j.  Row j takes one random branch on its first n_random maps,
    their indices drawn from its own Generator rngs[j] in one call, and
    every branch on the rest (the complete tree, branch-major); then it
    keeps the points at the first n_points entries of a permutation drawn
    from rngs[j], in tree order.  Rows share only the array calls, so each
    has the bits of a batch of one.
    """
    d = tables.shape[1] - 1
    ks = np.array([rng.integers(0, d, n_random) for rng in rngs])
    w = w[:, None]
    for i, c in enumerate(tables):
        if i < n_random:
            w = _branch(c[..., None], w, ks[:, i, None])
        else:
            w = _branch(c[..., None], w).reshape(len(w), -1)
    return [row[np.sort(rng.permutation(len(row))[:n_points])]
            for row, rng in zip(w, rngs)]


def _repelling_fixed_points(p: Poly1) -> np.ndarray:
    """The repelling fixed points of p, by decreasing |p'| (ties in `roots`
    order), from one solve of p(z) = z; every sampler starts from the
    first."""
    fix = roots(p - Poly1([0.0, 1.0]))
    mults = np.abs(p.deriv()(fix))
    rep = mults > 1.0
    if not rep.any():
        raise NumericalError("no repelling fixed point found")
    return fix[rep][np.argsort(-mults[rep], kind="stable")]


def sample_base_julia(p: Poly1, n_points: int, seed: int = 0,
                      burn_in: int = 100) -> PointCloud:
    """Sample the Julia set of p by backward iteration.

    A single random-branch backward walk from a repelling fixed point is
    burned in, then the complete preimage tree is expanded level by level
    until it holds n_points samples; the full tree gives much more even
    coverage than independent random walks.
    """
    if p.degree < 2:
        raise PreconditionError("base degree must be >= 2")
    if n_points < 1:
        raise PreconditionError("n_points must be >= 1")
    rng = np.random.default_rng(seed)
    z = _repelling_fixed_points(p)[:1]
    levels = burn_in + _tree_levels(p.degree, n_points)
    tables = np.broadcast_to(p.coeffs[:, None], (levels, p.degree + 1, 1))
    return PointCloud(_pullback(tables, z, burn_in, n_points, [rng])[0],
                      seed=seed)


def sample_fiber_julia(f: SkewProduct, z, n_points: int, depth: int = 50,
                       seed: int = 0) -> PointCloud:
    """Sample the fiber Julia set J_z by pullback along the forward orbit.

    Uses K_z = q_z^{-1}(K_{p(z)}): starts from a point in the fiber over
    p^depth(z) and pulls back through the chain of fiber maps, taking
    random branches on the deep (burn-in) levels and the complete branch
    tree on the last levels for even coverage.  Raises NumericalError when
    a fiber map along the orbit, or a sampled point, is not finite (the
    base orbit escapes: its maps can stay finite while the quadratic
    formula overflows).
    """
    (w,) = _sample_fibers(f, [z], n_points, [seed], depth)
    if w is None:
        raise NumericalError(_escapes(z))
    return PointCloud(w, seed=seed)


def _escapes(z) -> str:
    return (f"a fiber map along the base orbit of {z} is not finite, or a "
            "point pulled back through those maps overflows (the orbit "
            "escapes)")


def _sample_fibers(f: SkewProduct, zs, n_points: int, seeds,
                   depth: int = 50) -> list:
    """`sample_fiber_julia`'s points over each base point zs[j] with seed
    seeds[j], all rows pulled back together, each bit-equal to its own
    call; None for a row whose fiber maps along its base orbit are not all
    finite, which takes no part in the pull-back, or whose points are not
    all finite."""
    if n_points < 1:
        raise PreconditionError("n_points must be >= 1")
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    return _pull_fibers(f, *_fiber_tables(f, zs, depth), n_points, seeds)


def _fiber_tables(f: SkewProduct, zs, depth: int = 50):
    """The fiber maps along the base orbit of each zs[j], as (tables,
    finite): finite[j] tells whether row j's depth maps are all finite, and
    tables, (depth, d + 1, rows), holds the finite rows' maps, the last
    orbit point's map first."""
    chains = np.array([f.p.orbit(z, depth) for z in zs], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        maps = npoly.polyval(chains, f.q.coeffs)
    finite = np.isfinite(maps).all(axis=(0, 2))
    return np.moveaxis(maps[:, finite, ::-1], -1, 0), finite


def _pull_fibers(f: SkewProduct, tables, finite, n_points: int,
                 seeds) -> list:
    """`_sample_fibers` on the tables of `_fiber_tables`: row j's points
    with seed seeds[j], or None where finite[j] is False or a point is not
    finite."""
    rows = iter(())
    if finite.any():
        depth = len(tables)
        tree_levels = min(_tree_levels(f.degree, n_points), depth)
        rngs = [np.random.default_rng(s) for s, ok in zip(seeds, finite) if ok]
        rows = iter(_pullback(tables, np.full(len(rngs), 2.0 + 0j),
                              depth - tree_levels, n_points, rngs))
    pulled = (next(rows) if ok else None for ok in finite)
    return [w if w is not None and np.isfinite(w).all() else None
            for w in pulled]


def fiber_slice(
    f: SkewProduct,
    z,
    window: Rect | None = None,
    resolution=(512, 512),
    params: EscapeParams | None = None,
) -> FiberSlice:
    """Escape-time membership grid for the fiber over z.

    Classifies the orbit of every cell center; vectorized over the grid
    with a fixed reduction order (cell index), so results are deterministic.
    The grid runs `params.max_iter` steps along the base orbit of z: a given
    `params` sets the step count (`render` passes `derive_escape_radius`'s
    DEFAULT_MAX_ITER), and without one it is GRID_MAX_ITER.

    Where the float base orbit repeats exactly, z_{s+k} == z_s within those
    steps, the fiber maps repeat with period k from step s on, and the grid
    stops iterating a cell once it enters a certified trapping disk of an
    attracting cycle of that sequence (`_grid_traps`): its float orbit
    provably stays in the disks and never escapes, so its escape step is 0,
    as it would be after all the steps.
    """
    if params is None:
        params = derive_escape_radius(f).with_max_iter(GRID_MAX_ITER)
    if window is None:
        half = 1.2 * params.radius
        window = Rect.square(0.0, half)
    nx, ny = resolution
    with np.errstate(over="ignore", invalid="ignore"):
        base_orbit = f.p.orbit(z, params.max_iter)
        # row n: the n-th fiber map's coefficients, highest power first
        table = npoly.polyval(np.array(base_orbit), f.q.coeffs)[::-1].T
    esc = _escape_grid(table, window, nx, ny, params.radius,
                       _fiber_traps(f, base_orbit, params.radius))
    return FiberSlice(complex(z), window, nx, ny, esc)


def base_slice(p: Poly1, params: EscapeParams, resolution) -> FiberSlice:
    """Escape-time grid of the base plane under GRID_MAX_ITER steps of p,
    over the square of half-side 1.2 * params.base_radius about 0.

    The grid stops iterating a cell once it enters a certified trapping
    disk of an attracting cycle of p (`_grid_traps`); its escape step is 0,
    as it would be after all the steps.
    """
    nx, ny = resolution
    window = Rect.square(0.0, 1.2 * params.base_radius)
    table = np.broadcast_to(p.coeffs[::-1], (GRID_MAX_ITER, p.degree + 1))
    esc = _escape_grid(table, window, nx, ny, params.base_radius,
                       _grid_traps([p], 0, params.base_radius))
    return FiberSlice(None, window, nx, ny, esc)


# the longest period k of the fiber maps that is searched for traps.  The
# search walks k (d - 1) critical orbits for up to 2000 k steps each; at
# k = 10, where every orbit stays bounded and settles on no cycle (w^2 - 1.9,
# w^3 - 2.8 w), it takes 0.10 s at d = 2 and 0.22 s at d = 3 on a 2-vCPU
# machine (k = 16: 0.22 s and 0.50 s), and a few ms where the orbits settle
TRAP_MAX_PERIOD = 10

# cells of an escape-time grid iterated together: 2^16 complex values take
# 1 MiB, so a grid's working set besides its result stays a few MiB at any
# resolution, and grids computed on several threads at once do not add up
# to a peak that depends on how their steps interleave
GRID_BLOCK = 1 << 16


def _fiber_traps(f: SkewProduct, base_orbit: list, radius: float):
    """`_grid_traps` of the fiber maps along base_orbit, from its first
    exact repeat z_{s+k} == z_s (bit for bit, finite) on; None when it has
    none or its period k exceeds TRAP_MAX_PERIOD."""
    zs = np.asarray(base_orbit, dtype=complex)
    n = len(zs) if np.isfinite(zs).all() else int(np.argmin(np.isfinite(zs)))
    first = {}
    bits = zs[:n].view(np.uint64).reshape(-1, 2).tolist()
    for i, key in enumerate(map(tuple, bits)):
        s = first.setdefault(key, i)
        if s != i:
            break
    else:
        return None
    if i - s > TRAP_MAX_PERIOD:
        return None
    return _grid_traps([fiber_poly(f, zc) for zc in zs[s:i]], s, radius)


def _grid_traps(maps: list, start: int, radius: float):
    """The trapping disks of `engine._trap_chains` for a grid whose maps
    repeat maps[0..k-1] from step `start` on, as (start, phases): phases[j]
    holds the centers and shrunk radii of the disks of maps[j]; None when no
    cycle is certified."""
    chains = _trap_chains(maps, radius)
    if not chains:
        return None
    k = len(maps)
    phases = [(np.concatenate([c[j::k] for c, _ in chains]),
               np.concatenate([r[j::k] for _, r in chains]) * (1.0 - 1e-9))
              for j in range(k)]
    return start, phases


def _escape_grid(table, window: Rect, nx: int, ny: int,
                 radius: float, traps=None) -> np.ndarray:
    """Escape step of every cell center of the window, (ny, nx), 0 where it
    never escapes: step n applies the n-th map, whose coefficients are row
    n of `table` (highest power first), to the cells still within radius,
    until all have escaped or the rows run out.

    Only the live cells are held: their values `w` and flat cell indices
    `idx`, in cell order, compacted on the steps where some cell escapes or
    is trapped.  For a finite radius, `|w| <= radius` is False for inf and
    NaN, so those escape too.  `traps`, from `_grid_traps`, is (s, phases):
    after each step n >= s, a cell within a disk of phases[(n - s) % k]
    (|w - c| <= shrunk radius) is trapped and leaves the live cells with
    escape step 0.

    The cells run through all their steps GRID_BLOCK at a time, in cell
    order, so the working set besides the result is a few block-sized
    arrays whatever the resolution.
    """
    xs = window.re_min + (np.arange(nx) + 0.5) * (window.re_max - window.re_min) / nx
    ys = window.im_min + (np.arange(ny) + 0.5) * (window.im_max - window.im_min) / ny
    esc = np.zeros(nx * ny, dtype=int)
    start, phases = traps or (0, None)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, esc.size, GRID_BLOCK):
            idx = np.arange(lo, min(lo + GRID_BLOCK, esc.size))
            w = xs[idx % nx] + 1j * ys[idx // nx]
            for n, b in enumerate(table, 1):
                w = _horner(b, w)
                live = np.abs(w) <= radius
                if not live.all():
                    esc[idx[~live]] = n
                if phases and n >= start:
                    for c, r in zip(*phases[(n - start) % len(phases)]):
                        live &= np.abs(w - c) > r
                if not live.all():
                    w, idx = w[live], idx[live]
                    if not idx.size:
                        break
    return esc.reshape(ny, nx)


# Levels L of the complete preimage tree in every J2 chain, by degree d
# (0 where d is not listed: independent random walks), and the random
# steps each kept leaf takes after it; chosen by clause (ii)'s margins
# (README, "The J2 sampler").
J2_TREE_LEVELS = {2: 2}
J2_TAIL_STEPS = 10


def sample_J2_inverse(f: SkewProduct, n_points: int, seed: int = 0,
                      burn_in: int = 100) -> PointCloud:
    """Sample the two-variable Julia set J2 by inverse iteration of f.

    A backward step takes a base preimage z' of z and then a preimage of w
    under the fiber map over z'.  m = ceil(n_points / d^(2L)) chains start
    at (a repelling fixed point of p, 2) and take random steps, drawn from
    one Generator, a base and a fiber draw per step.  Then every branch is
    taken on L = J2_TREE_LEVELS[d] levels (0 where d is not listed), d
    base preimages each with d fiber preimages, so each chain splits into
    the d^(2L) leaves of a complete preimage tree, stored branch-major: the
    leaf of chain j with branches (kz, kw) on every level sits at
    j + m * sum of (kw d + kz) d^(2l) over the levels l.  Where there are
    more than n_points leaves, the leaves at the first n_points entries of
    a permutation drawn from the same Generator are kept, in tree order.
    Each kept leaf then takes K = J2_TAIL_STEPS random steps of its own:
    the siblings of a tree can be images of each other under a symmetry
    of f, and so sit at one distance from its postcritical set, but their
    descendants do not.  The chains take burn_in - L - K steps (L and K cut
    to fit in burn_in), so every point is a depth-burn_in backward image
    of the start with equal weight: the sample has the measure of maximal
    entropy.  At L = 0 this is n_points independent random walks.
    Backward base steps contract onto the base Julia set, so this stays
    stable even over strongly expanding bases.
    """
    if n_points < 1:
        raise PreconditionError("n_points must be >= 1")
    if burn_in < 1:
        raise PreconditionError("burn_in must be >= 1")
    d = f.degree
    levels = min(J2_TREE_LEVELS.get(d, 0), burn_in)
    tail = min(J2_TAIL_STEPS, burn_in - levels)
    m = -(-n_points // d ** (2 * levels))
    rng = np.random.default_rng(seed)

    def step(z, w):
        z = _branch(f.p.coeffs, z, rng.integers(0, d, len(z)))
        # the fiber map over each new z, one column per point
        table = npoly.polyval(z, f.q.coeffs)
        return z, _branch(table, w, rng.integers(0, d, len(z)))

    z = np.full(m, _repelling_fixed_points(f.p)[0])
    w = np.full(m, 2.0, dtype=complex)
    for _ in range(burn_in - levels - tail):
        z, w = step(z, w)
    for _ in range(levels):
        z = _branch(f.p.coeffs, z).ravel()
        w = _branch(npoly.polyval(z, f.q.coeffs), np.tile(w, d))
        z, w = np.tile(z, d), w.ravel()
    if len(z) > n_points:
        keep = np.sort(rng.permutation(len(z))[:n_points])
        z, w = z[keep], w[keep]
    for _ in range(tail):
        z, w = step(z, w)
    return PointCloud(np.column_stack([z, w]), seed=seed)


def _as_real(points: np.ndarray) -> np.ndarray:
    """Rows [re, im, ...] of complex points, as a float view (no copy)."""
    pts = np.ascontiguousarray(points, dtype=complex)
    return (pts[:, None] if pts.ndim == 1 else pts).view(float)


def _row_hash(u: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of a uint64 (n, k) array; the shift
    breaks sign symmetry."""
    mix = np.uint64(1000003) ** np.arange(u.shape[1], dtype=np.uint64)
    return sum((c ^ c >> np.uint64(31)) * m for c, m in zip(u.T, mix))


def _distinct_rows(rows: np.ndarray):
    """Index of the first occurrence of each byte-distinct row, in row
    order, and for every row the position of its distinct row among them.

    Rows are grouped by their 64-bit hash, and a grouping is kept only when
    every row equals its group's first row bit for bit; where two different
    rows share a hash, they are grouped by their bytes."""
    rows = np.ascontiguousarray(rows, dtype=float)
    u = rows.view(np.uint64)
    h = _row_hash(u)
    s = np.sort(h)
    if np.all(s[1:] != s[:-1]):        # distinct hashes mean no repeats
        return np.arange(len(rows)), np.arange(len(rows))
    _, first, inverse = np.unique(h, return_index=True, return_inverse=True)
    rep = first[inverse]
    if not all(np.array_equal(c, c[rep]) for c in u.T):
        key = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
        _, first, inverse = np.unique(key.ravel(), return_index=True,
                                      return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


def _kdtree(rows: np.ndarray):
    """A scipy `cKDTree` over the rows, the one place a tree is built.

    scipy.spatial is imported on the first call, not with this module: the
    import takes about 0.3 s, and most subcommands never build a tree, so
    the CLI's start-up does not pay for it."""
    from scipy.spatial import cKDTree

    return cKDTree(rows)


class CloudIndex:
    """Nearest-neighbour index of a real (n, k) point cloud.

    The KD-tree holds each distinct row once, in order of first occurrence
    (postcritical clouds are mostly repeats, on which a KD-tree over all
    rows degenerates); distances are those of a tree over all rows.

    With an `inverse`, `rows` are a cloud's states and row k of the cloud
    is rows[inverse[k]] (`PointCloud.inverse`): the tree is built from the
    states, grouped by their own bytes, and `inverse` and the repeat-aware
    `nn_distances` and `spacing` cover the cloud's rows.  `distinct` holds
    the distinct rows, rows[keep], the tree's own data; `len` counts the
    cloud's rows.
    """

    def __init__(self, rows: np.ndarray, inverse: np.ndarray | None = None):
        self.keep, self.inverse = _distinct_rows(rows)
        if inverse is not None:
            self.inverse = self.inverse[inverse]
        self.distinct = rows[self.keep]
        self.tree = _kdtree(self.distinct)

    def __len__(self) -> int:
        return len(self.inverse)

    def query(self, q: np.ndarray, workers: int = 1):
        """Distance to the nearest row and that row's index in `rows`, per
        query row; `workers` threads split the query rows (-1: one per
        CPU)."""
        d, i = self.tree.query(q, workers=workers)
        return d, self.keep[i]

    def nn_distances(self) -> np.ndarray:
        """Distance from each row to its nearest other row: 0 for a repeated
        row, inf for the only row."""
        d = self.tree.query(self.tree.data, k=2)[0][:, 1]
        return np.where(np.bincount(self.inverse) > 1, 0.0, d)[self.inverse]

    @cached_property
    def spacing(self) -> float:
        """Median nearest-neighbour distance of the rows."""
        return float(np.median(self.nn_distances()))


def directed_hausdorff(a, b, workers: int = 1) -> float:
    """sup over a of the distance to the nearest point of b (Euclidean),
    queried on `workers` threads.

    a and b are PointClouds, or the CloudIndexes of their points, which
    `hausdorff_distance` builds once per cloud for both directions.

    Exact on a pruned query set (after Taha and Hanbury, IEEE TPAMI 2015):
    every 16th distinct row of a forms a subsample S, whose largest
    distance L to b bounds the result from below.  A row x whose nearest
    subsample row is s has d(x, b) <= d(s, b) + |x - s|, so only the rows
    where that bound reaches L (less a relative slack of 1e-9, far above
    rounding) are queried.  The row attaining the maximum is among them,
    and a row's distance does not depend on the other rows queried, so the
    result is bit-equal to querying every row.
    """
    if len(a) == 0 or len(b) == 0:
        raise PreconditionError("clouds must be nonempty")
    if isinstance(a, CloudIndex):
        rows = a.distinct
    else:
        rows = _as_real(a.points)
        rows = rows[_distinct_rows(rows)[0]]
    index = b if isinstance(b, CloudIndex) else CloudIndex(_as_real(b.points))
    sub = rows[::16]
    d_sub, _ = index.query(sub, workers)
    r, near = _kdtree(sub).query(rows, workers=workers)
    bound = d_sub[near] + r
    d, _ = index.query(rows[bound >= d_sub.max() * (1.0 - 1e-9)], workers)
    return float(np.max(d))


def hausdorff_distance(a: PointCloud, b: PointCloud,
                       workers: int = 1) -> float:
    """Symmetric Hausdorff distance between two point clouds, queried on
    `workers` threads; each cloud's distinct rows are found, and its tree
    built, once."""
    if a.dim != b.dim:
        raise PreconditionError("clouds must have equal dimension")
    if len(a) == 0 or len(b) == 0:
        raise PreconditionError("clouds must be nonempty")
    a, b = CloudIndex(_as_real(a.points)), CloudIndex(_as_real(b.points))
    return max(directed_hausdorff(a, b, workers),
               directed_hausdorff(b, a, workers))


def sphere_embed(points: np.ndarray) -> np.ndarray:
    """Embed C (or C^2, per coordinate) onto the Riemann sphere in R^3
    (or R^6) so that Euclidean distance realizes the chordal metric."""
    pts = np.asarray(points, dtype=complex)
    cols = [pts] if pts.ndim == 1 else [pts[:, 0], pts[:, 1]]
    out = []
    for c in cols:
        s = 1.0 + np.abs(c) ** 2
        out.extend([2.0 * c.real / s, 2.0 * c.imag / s, (np.abs(c) ** 2 - 1.0) / s])
    return np.column_stack(out)


def min_chordal_distance(a: PointCloud, b: PointCloud) -> float:
    """Smallest chordal-product distance between points of two clouds.

    Each point of a is queried once; a cloud with an `inverse` holds each
    distinct row once, so its repeats are never queried."""
    if len(a) == 0 or len(b) == 0:
        raise PreconditionError("clouds must be nonempty")
    d, _ = CloudIndex(sphere_embed(b.points)).query(sphere_embed(a.points))
    return float(np.min(d))


def _csv_rows(header: str, rows: np.ndarray) -> str:
    """The header, then one CSV line per row of a C-contiguous real (n, k)
    array, each field the repr of a Python float.

    orjson (Ryū) prints the same shortest round-trip digits as repr
    (Gay's dtoa), and lays them out the same way for 0 and for
    1e-4 <= |x| < 1e16. Outside that range repr switches to exponent form
    (1e-05, 1e+16) where orjson writes 0.00001 and 1e16, and orjson writes
    NaN and inf as null. A row with such a field is written field by field
    with repr; each maximal run of other rows is one orjson call. orjson is
    imported on the first call, so the CLI's start-up does not pay for it.
    """
    import orjson

    if not len(rows):
        return header
    a = np.abs(rows)
    odd = ~((a == 0) | ((a >= 1e-4) & (a < 1e16))).all(axis=1)
    cuts = [0, *(np.flatnonzero(odd[1:] != odd[:-1]) + 1).tolist(), len(rows)]
    parts = [header]
    for s, e in zip(cuts, cuts[1:]):
        if odd[s]:
            parts.extend(",".join(map(repr, r)) + "\n"
                         for r in rows[s:e].tolist())
        else:
            # [[x,y],[x,y]] -> x,y\nx,y, holding at most two copies of the
            # text at a time
            parts += [orjson.dumps(rows[s:e],
                                   option=orjson.OPT_SERIALIZE_NUMPY)
                      .replace(b"],[", b"\n")[2:-2].decode(), "\n"]
    return "".join(parts)


def cloud_to_csv(cloud: PointCloud) -> str:
    """CSV of the cloud, each field the repr of a Python float."""
    header = "re_z,im_z\n" if cloud.dim == 1 else "re_z,im_z,re_w,im_w\n"
    return _csv_rows(header, _as_real(cloud.points))


def slice_to_pgm(slice_: FiberSlice) -> bytes:
    """Binary portable graymap of escape iterations (0 = bounded)."""
    g = (slice_.escape_iters % 256).astype(np.uint8)
    header = f"P5\n{slice_.nx} {slice_.ny}\n255\n".encode()
    return header + g.tobytes()


def slice_to_ppm(slice_: FiberSlice) -> bytes:
    """Binary portable pixmap: black = bounded, gray ramp by escape iter."""
    ramp = slice_.escape_iters % 256
    rgb = np.zeros((slice_.ny, slice_.nx, 3), dtype=np.uint8)
    for k in range(3):
        rgb[:, :, k] = ramp
    header = f"P6\n{slice_.nx} {slice_.ny}\n255\n".encode()
    return header + rgb.tobytes()
