"""Sampling and measuring the dynamical sets.

Base Julia sets by inverse iteration, fiber slices by escape-time grids,
fiber Julia samples by pullback along the forward base orbit, the global
two-variable Julia set, and Hausdorff distances between point clouds.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

import numpy as np
from scipy.spatial import cKDTree

from .engine import EscapeParams, GRID_MAX_ITER, Rect, derive_escape_radius
from .errors import NumericalError, PreconditionError
from .poly import Poly1, SkewProduct, fiber_poly, roots

__all__ = [
    "PointCloud",
    "FiberSlice",
    "sample_base_julia",
    "sample_fiber_julia",
    "fiber_slice",
    "base_slice",
    "boundary_extract",
    "assemble_J2",
    "sample_J2_inverse",
    "CloudIndex",
    "hausdorff_distance",
    "directed_hausdorff",
    "continuity_scan",
    "cloud_to_csv",
    "slice_to_pgm",
    "slice_to_ppm",
    "sphere_embed",
    "min_chordal_distance",
]


@dataclass(frozen=True)
class PointCloud:
    """Finite sample of a dynamical set; dim-1 points are complex, dim-2
    points are rows (z, w)."""

    points: np.ndarray
    tag: str = "Custom"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=complex))

    @property
    def dim(self) -> int:
        return 1 if self.points.ndim == 1 else 2

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class FiberSlice:
    z: complex | None          # None for the base plane (base_slice)
    window: Rect
    nx: int
    ny: int
    membership: np.ndarray     # bool (ny, nx), True = bounded
    escape_iters: np.ndarray   # int (ny, nx), 0 where bounded
    params: EscapeParams = field(compare=False, default=None)

    def cell_width(self) -> float:
        return (self.window.re_max - self.window.re_min) / self.nx

    def centers(self):
        w = self.window
        xs = w.re_min + (np.arange(self.nx) + 0.5) * (w.re_max - w.re_min) / self.nx
        ys = w.im_min + (np.arange(self.ny) + 0.5) * (w.im_max - w.im_min) / self.ny
        X, Y = np.meshgrid(xs, ys)
        return X + 1j * Y


def _preimages(poly: Poly1, values: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """One backward step: for each value v, the picks[i]-th root of poly = v."""
    c = poly.coeffs
    if len(c) == 3:
        # quadratic formula, vectorized
        a, b, c0 = c[2], c[1], c[0]
        disc = np.sqrt(b * b - 4.0 * a * (c0 - values))
        r1 = (-b + disc) / (2.0 * a)
        r2 = (-b - disc) / (2.0 * a)
        return np.where(picks % 2 == 0, r1, r2)
    out = np.empty(len(values), dtype=complex)
    for i, v in enumerate(values):
        shifted = c.copy()
        shifted[0] -= v
        rts = roots(Poly1(shifted))
        out[i] = rts[picks[i] % len(rts)]
    return out


def _repelling_fixed_point(p: Poly1) -> complex:
    fix = roots(p - Poly1([0.0, 1.0]))
    dp = p.deriv()
    mults = np.abs(dp(fix))
    rep = fix[mults > 1.0]
    if len(rep) == 0:
        raise NumericalError("no repelling fixed point found")
    return complex(rep[np.argmax(np.abs(dp(rep)))])


def _all_preimages(poly: Poly1, values: np.ndarray) -> np.ndarray:
    """All d preimages of each value (flattened)."""
    c = poly.coeffs
    if len(c) == 3:
        a, b, c0 = c[2], c[1], c[0]
        disc = np.sqrt(b * b - 4.0 * a * (c0 - values))
        return np.concatenate([(-b + disc) / (2 * a), (-b - disc) / (2 * a)])
    out = []
    for v in values:
        shifted = c.copy()
        shifted[0] -= v
        out.append(roots(Poly1(shifted)))
    return np.concatenate(out)


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
    z = np.array([_repelling_fixed_point(p)], dtype=complex)
    for _ in range(burn_in):
        picks = rng.integers(0, p.degree, 1)
        z = _preimages(p, z, picks)
    while len(z) < n_points:
        z = _all_preimages(p, z)
    idx = rng.permutation(len(z))[:n_points]
    return PointCloud(z[np.sort(idx)], tag="Jp", seed=seed)


def sample_fiber_julia(f: SkewProduct, z, n_points: int, depth: int = 50,
                       seed: int = 0) -> PointCloud:
    """Sample the fiber Julia set J_z by pullback along the forward orbit.

    Uses K_z = q_z^{-1}(K_{p(z)}): starts from a point in the fiber over
    p^depth(z) and pulls back through the chain of fiber maps, taking
    random branches on the deep (burn-in) levels and the complete branch
    tree on the last levels for even coverage.
    """
    rng = np.random.default_rng(seed)
    chain = f.p.orbit(z, depth)
    tree_levels = int(np.ceil(np.log(n_points) / np.log(f.degree)))
    tree_levels = min(tree_levels, depth)
    w = np.array([2.0 + 0j])
    for i, zk in enumerate(reversed(chain)):
        qz = fiber_poly(f, zk)
        if i >= depth - tree_levels:
            w = _all_preimages(qz, w)
        else:
            picks = rng.integers(0, f.degree, len(w))
            w = _preimages(qz, w, picks)
    idx = rng.permutation(len(w))[:n_points]
    return PointCloud(w[np.sort(idx)], tag=f"Jz({z})", seed=seed)


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
    """
    if params is None:
        params = derive_escape_radius(f).with_max_iter(GRID_MAX_ITER)
    if window is None:
        half = 1.2 * params.radius
        window = Rect.square(0.0, half)
    nx, ny = resolution
    with np.errstate(over="ignore", invalid="ignore"):
        base_orbit = f.p.orbit(z, params.max_iter)
    esc = _escape_grid((fiber_poly(f, zc) for zc in base_orbit), window,
                       nx, ny, params.radius)
    return FiberSlice(complex(z), window, nx, ny, esc == 0, esc, params)


def base_slice(p: Poly1, params: EscapeParams, resolution) -> FiberSlice:
    """Escape-time grid of the base plane under GRID_MAX_ITER steps of p,
    over the square of half-side 1.2 * params.base_radius about 0."""
    nx, ny = resolution
    window = Rect.square(0.0, 1.2 * params.base_radius)
    esc = _escape_grid(repeat(p, GRID_MAX_ITER), window, nx, ny,
                       params.base_radius)
    return FiberSlice(None, window, nx, ny, esc == 0, esc, params)


def _escape_grid(maps, window: Rect, nx: int, ny: int,
                 radius: float) -> np.ndarray:
    """Escape step of every cell center of the window, (ny, nx), 0 where it
    never escapes: step n applies the n-th map of `maps` to the cells still
    within radius, until all have escaped or the maps run out."""
    xs = window.re_min + (np.arange(nx) + 0.5) * (window.re_max - window.re_min) / nx
    ys = window.im_min + (np.arange(ny) + 0.5) * (window.im_max - window.im_min) / ny
    X, Y = np.meshgrid(xs, ys)
    w = (X + 1j * Y).ravel()
    esc = np.zeros(w.shape, dtype=int)
    alive = np.ones(w.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, g in enumerate(maps, 1):
            wn = g(w[alive])
            dead = ~np.isfinite(wn.real) | ~np.isfinite(wn.imag) | (
                np.abs(wn) > radius
            )
            w[alive] = np.where(dead, np.inf, wn)
            idx = np.where(alive)[0]
            esc[idx[dead]] = n
            alive[idx[dead]] = False
            if not alive.any():
                break
    return esc.reshape(ny, nx)


def boundary_extract(slice_: FiberSlice) -> PointCloud:
    """Cell centers along the bounded/escaped interface of a fiber slice.

    Bounded cells with an escaped 4-neighbor, plus escaped cells adjacent
    to a bounded one (thickening the band by at most one cell).
    """
    m = slice_.membership
    if not m.any():
        return PointCloud(np.zeros(0, dtype=complex), tag="Jz-empty")
    pad = np.pad(m, 1, constant_values=False)
    nbr_escaped = (
        ~pad[:-2, 1:-1] | ~pad[2:, 1:-1] | ~pad[1:-1, :-2] | ~pad[1:-1, 2:]
    )
    nbr_bounded = (
        pad[:-2, 1:-1] | pad[2:, 1:-1] | pad[1:-1, :-2] | pad[1:-1, 2:]
    )
    boundary = (m & nbr_escaped) | (~m & nbr_bounded)
    centers = slice_.centers()
    return PointCloud(centers[boundary], tag=f"Jz({slice_.z})")


def assemble_J2(
    f: SkewProduct,
    base: PointCloud,
    per_fiber_budget: int = 32,
    depth: int = 40,
    seed: int = 0,
) -> PointCloud:
    """Union of fiber Julia samples over a base Julia sample (dimension 2)."""
    if base.dim != 1 or len(base) == 0:
        raise PreconditionError("base must be a nonempty 1D cloud")
    out = np.empty((len(base) * per_fiber_budget, 2), dtype=complex)
    for i, z in enumerate(base.points):
        jc = sample_fiber_julia(f, z, per_fiber_budget, depth=depth,
                                seed=seed + i)
        out[i * per_fiber_budget:(i + 1) * per_fiber_budget, 0] = z
        out[i * per_fiber_budget:(i + 1) * per_fiber_budget, 1] = jc.points
    return PointCloud(out, tag="J2", seed=seed)


def sample_J2_inverse(f: SkewProduct, n_points: int, seed: int = 0,
                      burn_in: int = 100) -> PointCloud:
    """Sample the two-variable Julia set by coupled inverse iteration.

    Pulls (z, w) back together: a random base preimage z' of z followed by
    a random fiber preimage of w under the fiber map over z'.  Backward
    base steps contract onto the base Julia set, so this stays stable even
    over strongly expanding bases.
    """
    rng = np.random.default_rng(seed)
    z = np.full(n_points, _repelling_fixed_point(f.p), dtype=complex)
    w = np.full(n_points, 2.0, dtype=complex)
    for _ in range(burn_in):
        picks = rng.integers(0, f.p.degree, n_points)
        z = _preimages(f.p, z, picks)
        wpicks = rng.integers(0, f.degree, n_points)
        c = f.q.coeffs
        if c.shape[1] == 3 and np.count_nonzero(c[:, 1]) == 0:
            # degree-2 fiber with no linear term: direct square roots
            b0 = np.polynomial.polynomial.polyval(z, c[:, 0])
            b2 = c[0, 2]
            root = np.sqrt((w - b0) / b2)
            w = np.where(wpicks % 2 == 0, root, -root)
        else:
            for i in range(n_points):
                w[i] = _preimages(fiber_poly(f, z[i]),
                                  w[i:i + 1], wpicks[i:i + 1])[0]
    return PointCloud(np.column_stack([z, w]), tag="J2", seed=seed)


def _as_real(points: np.ndarray) -> np.ndarray:
    """Rows [re, im, ...] of complex points, as a float view (no copy)."""
    pts = np.ascontiguousarray(points, dtype=complex)
    return (pts[:, None] if pts.ndim == 1 else pts).view(float)


def _distinct_rows(rows: np.ndarray):
    """Index of the first occurrence of each byte-distinct row, in row
    order, and for every row the position of its distinct row among them."""
    rows = np.ascontiguousarray(rows, dtype=float)
    # distinct row-byte hashes mean no repeats; the shift breaks sign symmetry
    u = rows.view(np.uint64)
    mix = np.uint64(1000003) ** np.arange(rows.shape[1], dtype=np.uint64)
    h = np.sort(sum((c ^ c >> np.uint64(31)) * m for c, m in zip(u.T, mix)))
    if np.all(h[1:] != h[:-1]):
        return np.arange(len(rows)), np.arange(len(rows))
    key = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(key.ravel(), return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


class CloudIndex:
    """Nearest-neighbour index of a real (n, k) point cloud.

    The KD-tree holds each distinct row once, in order of first occurrence
    (postcritical clouds are mostly repeats, on which a KD-tree over all
    rows degenerates); distances are those of a tree over all rows.
    """

    def __init__(self, rows: np.ndarray):
        self.keep, self.inverse = _distinct_rows(rows)
        self.tree = cKDTree(rows[self.keep])

    def query(self, q: np.ndarray):
        """Distance to the nearest row and that row's index, per query row."""
        d, i = self.tree.query(q)
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


def directed_hausdorff(a: PointCloud, b: PointCloud) -> float:
    """sup over a of the distance to the nearest point of b (Euclidean)."""
    if len(a) == 0 or len(b) == 0:
        raise PreconditionError("clouds must be nonempty")
    d, _ = CloudIndex(_as_real(b.points)).query(_as_real(a.points))
    return float(np.max(d))


def hausdorff_distance(a: PointCloud, b: PointCloud) -> float:
    """Symmetric Hausdorff distance between two point clouds."""
    if a.dim != b.dim:
        raise PreconditionError("clouds must have equal dimension")
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


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
    """Smallest chordal-product distance between points of two clouds."""
    if len(a) == 0 or len(b) == 0:
        raise PreconditionError("clouds must be nonempty")
    pts = a.points[_distinct_rows(_as_real(a.points))[0]]
    d, _ = CloudIndex(sphere_embed(b.points)).query(sphere_embed(pts))
    return float(np.min(d))


def continuity_scan(
    f: SkewProduct,
    z0,
    base: PointCloud,
    radii,
    mode: str = "J",
    n_fiber: int = 2000,
    resolution=(128, 128),
    seed: int = 0,
):
    """Hausdorff deviation of nearby fiber sets from the fiber over z0.

    For each radius, compares the J_z (mode "J", pullback clouds) or K_z
    (mode "K", bounded grid cells, with area ratio) of base samples within
    that radius of z0 against the z0 fiber.  Rows with no base sample in
    range are marked absent.
    """
    z0 = complex(z0)
    rows = []
    if mode == "J":
        ref = sample_fiber_julia(f, z0, n_fiber, seed=seed)
    else:
        ref_slice = fiber_slice(f, z0, resolution=resolution)
        ref = PointCloud(ref_slice.centers()[ref_slice.membership])
        ref_area = max(int(ref_slice.membership.sum()), 1)
    for r in sorted(radii, reverse=True):
        near = base.points[np.abs(base.points - z0) <= r]
        near = near[np.abs(near - z0) > 0][:8]
        if len(near) == 0:
            rows.append({"radius": r, "absent": True})
            continue
        worst = 0.0
        worst_area = 0.0
        for i, z in enumerate(near):
            if mode == "J":
                cl = sample_fiber_julia(f, z, n_fiber, seed=seed + 1 + i)
                worst = max(worst, hausdorff_distance(cl, ref))
            else:
                sl = fiber_slice(f, z, resolution=resolution)
                area = int(sl.membership.sum())
                worst_area = max(worst_area, area / ref_area)
                if area and len(ref):
                    cl = PointCloud(sl.centers()[sl.membership])
                    worst = max(worst, hausdorff_distance(cl, ref))
        row = {"radius": r, "absent": False, "max_hausdorff": worst}
        if mode == "K":
            row["max_area_ratio"] = worst_area
        rows.append(row)
    return rows


def cloud_to_csv(cloud: PointCloud) -> str:
    """CSV of the cloud, each field the repr of a Python float (numpy 2
    scalars would repr as np.float64(...))."""
    buf = io.StringIO()
    if cloud.dim == 1:
        buf.write("re_z,im_z\n")
        for p in cloud.points.tolist():
            buf.write(f"{p.real!r},{p.imag!r}\n")
    else:
        buf.write("re_z,im_z,re_w,im_w\n")
        for z, w in cloud.points.tolist():
            buf.write(f"{z.real!r},{z.imag!r},{w.real!r},{w.imag!r}\n")
    return buf.getvalue()


def slice_to_pgm(slice_: FiberSlice) -> bytes:
    """Binary portable graymap of escape iterations (0 = bounded)."""
    g = (slice_.escape_iters % 256).astype(np.uint8)
    g[slice_.membership] = 0
    header = f"P5\n{slice_.nx} {slice_.ny}\n255\n".encode()
    return header + g.tobytes()


def slice_to_ppm(slice_: FiberSlice) -> bytes:
    """Binary portable pixmap: black = bounded, gray ramp by escape iter."""
    ramp = slice_.escape_iters % 256
    rgb = np.zeros((slice_.ny, slice_.nx, 3), dtype=np.uint8)
    for k in range(3):
        rgb[:, :, k] = ramp
    rgb[slice_.membership] = 0
    header = f"P6\n{slice_.nx} {slice_.ny}\n255\n".encode()
    return header + rgb.tobytes()
