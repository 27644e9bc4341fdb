"""Independent checks of the artifacts one `skewdyn` CLI call wrote.

Each check takes a `CallResult` and raises `CheckFailed` when the output
is wrong.  The checks recompute what they can apart from the program
(critical orbits of w^2 + a, cycle closure under the map, Hausdorff
distances with scipy's early-break algorithm, escape-time grids) and
otherwise test properties the method must have (manifest hashes, CSV row
counts, invariant curves).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial.distance import directed_hausdorff


class CheckFailed(Exception):
    pass


def need(cond, msg: str):
    if not cond:
        raise CheckFailed(msg)


@dataclass
class CallResult:
    outdir: Path
    rc: object              # exit code, or the text of an uncaught exception
    stdout: str
    stderr: str
    seconds: float
    artifacts: dict = field(default_factory=dict)   # path -> sha256
    _csv: dict = field(default_factory=dict)

    def json(self, name: str):
        return json.loads((self.outdir / name).read_text())

    def csv(self, name: str):
        """(rows, strict) for a CSV artifact; cached per call."""
        if name not in self._csv:
            self._csv[name] = read_csv(self.outdir / name)
        return self._csv[name]


def read_csv(path: Path):
    """Float rows of a CSV artifact and whether every field parsed as a
    plain float.  Fields written as `np.float64(x)` are unwrapped so the
    other checks still see the values."""
    head, _, body = path.read_text().partition("\n")
    ncol = len(head.split(","))
    fields = body.replace("\n", ",").rstrip(",").split(",") if body else []
    try:
        vals = np.array(fields, dtype=float)
        strict = True
    except ValueError:
        body = body.replace("np.float64(", "").replace(")", "")
        vals = np.array(body.replace("\n", ",").rstrip(",").split(","),
                        dtype=float)
        strict = False
    need(len(vals) % ncol == 0, f"{path.name}: ragged rows")
    need(len(vals) // ncol == body.count("\n"),
         f"{path.name}: row count does not match line count")
    return vals.reshape(-1, ncol), strict


def complex_cols(rows: np.ndarray) -> np.ndarray:
    """CSV rows (re, im, re, im, ...) as complex columns."""
    return rows[:, 0::2] + 1j * rows[:, 1::2]


def as_complex(pair) -> complex:
    return complex(pair[0], pair[1])


# --------------------------------------------------------------- all calls


def exit_ok(res: CallResult):
    last = res.stderr.strip().splitlines()[-1:] or [""]
    need(res.rc == 0, f"exit {str(res.rc).strip()[-200:]}: {last[0][:200]}")


def manifest(res: CallResult):
    """Every listed artifact exists with the listed size and SHA-256, and
    nothing else was written."""
    man = res.json("manifest.json")
    listed = {}
    for art in man["artifacts"]:
        data = (res.outdir / art["path"]).read_bytes()
        need(len(data) == art["bytes"], f"{art['path']}: byte count")
        digest = hashlib.sha256(data).hexdigest()
        need(digest == art["sha256"], f"{art['path']}: sha256 mismatch")
        listed[art["path"]] = digest
    on_disk = {p.name for p in res.outdir.iterdir()} - {"manifest.json"}
    need(on_disk == set(listed), f"unlisted files {on_disk - set(listed)}")
    res.artifacts = listed


def csv_strict(res: CallResult):
    """Every CSV field is a plain float literal."""
    bad = [p.name for p in sorted(res.outdir.glob("*.csv"))
           if not res.csv(p.name)[1]]
    need(not bad, f"fields that are not float literals in {bad}")


# ----------------------------------------------------------------- certify


def quadratic_is_hyperbolic(a: complex, n_iter: int = 20000,
                            max_period: int = 64, tol: float = 1e-10) -> bool:
    """w^2 + a is hyperbolic iff its critical orbit escapes or settles on
    an attracting cycle."""
    radius = max(2.0, abs(a))
    w, orbit = 0j, []
    for _ in range(n_iter):
        w = w * w + a
        if abs(w) > radius:
            return True
        orbit.append(w)
    tail = np.array(orbit[-2 * max_period:])
    for k in range(1, max_period + 1):
        if np.max(np.abs(tail[k:] - tail[:-k])) < tol:
            return abs(np.prod(2.0 * tail[-k:])) < 1.0
    return False


def certify_checks(fiber_a: complex, margin: float):
    """F_a and (z^2, w^2 + a) are semiconjugate by (z, w) -> (z^2, z w), and
    z^2 is hyperbolic, so the verdict must be Certified-* exactly when
    w^2 + a is hyperbolic."""
    def verdict(res):
        rep = res.json("certify.json")
        need(res.stdout.strip() == rep["verdict"], "stdout verdict differs")
        want = quadratic_is_hyperbolic(complex(fiber_a))
        got = rep["verdict"].startswith("Certified")
        need(got == want, f"verdict {rep['verdict']} but w^2+{fiber_a} "
                          f"hyperbolic={want}")

    def margin_ii(res):
        rep = res.json("certify.json")
        if rep["verdict"].startswith("Certified"):
            need(rep["clauses"]["ii"]["margin"] > margin,
                 f"clause ii margin {rep['clauses']['ii']['margin']}")

    return [verdict, margin_ii]


def trapping_checks(r: float, m: int):
    def trapping(res):
        rep = res.json("lemma.json")
        need(rep["id"] == "trapping" and rep["pass"] is True,
             "trapping did not pass")
        need(rep["worst_ratio"] < 0.5, f"worst_ratio {rep['worst_ratio']}")
        need(1 <= rep["m"] <= m, f"m = {rep['m']}")
        need(rep["j2_gap"] > r, f"j2_gap {rep['j2_gap']} <= r")
        need(res.stdout.strip() == "trapping: pass", "stdout differs")
    return [trapping]


# ------------------------------------------------------------------ orbits


def chain_checks(want: str, curves: bool = False):
    def regime(res):
        rep = res.json("chain.json")
        need(rep["regime"] == want, f"regime {rep['regime']}")
        need(res.stdout.strip() == want, "stdout regime differs")

    def csv_rows(res):
        rep = res.json("chain.json")
        for key in ("apt", "acc"):
            path = res.outdir / f"{key}.csv"
            rows = len(res.csv(path.name)[0]) if path.exists() else 0
            need(rows == rep[f"{key}_count"],
                 f"{key}.csv has {rows} rows, report {rep[f'{key}_count']}")

    def invariant_curves(res):
        # (z, 0) -> (z^2, -z) -> (z^4, 0) under F_{-1}: the accumulation
        # points lie on {w = 0} or {w^2 = z}
        for key in ("apt", "acc"):
            zw = complex_cols(res.csv(f"{key}.csv")[0])
            z, w = zw[:, 0], zw[:, 1]
            dev = np.minimum(np.abs(w), np.abs(w * w - z))
            need(len(z) and np.max(dev) <= 1e-12,
                 f"{key}: {np.sum(dev > 1e-12)} points off the curves")

    return [regime, csv_rows, csv_strict] + ([invariant_curves] if curves
                                             else [])


def saddle_checks(a: complex):
    """Cycles of F_a close under (z, w) -> (z^2, w^2 + a z); base cycles
    repel and fiber cycles attract."""
    def saddles(res):
        rep = res.json("saddles.json")
        need(rep["count"] == len(rep["orbits"]) > 0, "orbit count")
        need(res.stdout.strip() == f"{rep['count']} saddle orbit(s)",
             "stdout count differs")
        for orb in rep["orbits"]:
            cyc = np.array([[as_complex(z), as_complex(w)]
                            for z, w in orb["cycle"]])
            z, w = cyc[:, 0], cyc[:, 1]
            img_z, img_w = z * z, w * w + a * z
            nxt = np.roll(cyc, -1, axis=0)
            scale = np.maximum(1.0, np.abs(nxt))
            err = np.max(np.abs(np.column_stack([img_z, img_w]) - nxt) / scale)
            need(err < 1e-9, f"cycle does not close ({err:.1e})")
            n = orb["base_period"]
            mu_base = abs(np.prod(2.0 * z[:n]))
            mu_vert = abs(np.prod(2.0 * w))
            need(mu_base > 1.0, f"base multiplier {mu_base}")
            need(mu_vert < 1.0, f"vertical multiplier {mu_vert}")
    return [saddles]


def continue_checks(target: complex, steps: int, lost_near=None):
    def outcome(res):
        rep = res.json("continue.json")
        rows = res.csv("trace.csv")[0]
        need(len(rows) == rep["steps"], "trace.csv rows != steps")
        need(res.stdout.strip() == rep["outcome"], "stdout outcome differs")
        if lost_near is None:
            need(rep["outcome"] == "Completed", rep["outcome"])
            need(rep["steps"] == steps, f"{rep['steps']} steps")
            need(as_complex(rep["end"]["lambda"]) == target, "end parameter")
        else:
            need(rep["outcome"] == "Lost(multiplier-crossing)",
                 rep["outcome"])
            lost = as_complex(rep["lost_at"])
            need(abs(lost - lost_near) < 1e-3, f"lost at {lost}")
    return [outcome, csv_strict]


def separate_checks(want=(2, 1)):
    def degrees(res):
        rep = res.json("separate.json")
        need((rep["A"], rep["B"]) == want, f"degrees {rep['A'], rep['B']}")
        need(rep["verdict"] == "Separated", rep["verdict"])
    return [degrees]


# ------------------------------------------------------------------ clouds


def hausdorff_checks(files: list, n_samples: int):
    """`files` names the two CSVs behind each row of hausdorff.json."""
    def recompute(res):
        rows = res.json("hausdorff.json")["rows"]
        need(len(rows) == len(files), "row count")
        for (name_a, name_b), row in zip(files, rows):
            a, b = res.csv(name_a)[0], res.csv(name_b)[0]
            need(len(a) == len(b) == n_samples, "sample count")
            d = max(directed_hausdorff(a, b, seed=0)[0],
                    directed_hausdorff(b, a, seed=0)[0])
            need(abs(d - row["hausdorff"]) <= 1e-12 * max(d, 1.0),
                 f"{name_a}: reported {row['hausdorff']}, recomputed {d}")
    return [recompute, csv_strict]


def theta_checks(tol: float):
    def theta_tolerance(res):
        for row in res.json("hausdorff.json")["rows"]:
            need(row["hausdorff"] < tol,
                 f"theta={row['theta']}: {row['hausdorff']} >= {tol}")
    return [theta_tolerance]


def unit_circle(res):
    """p(5) = 5 and q_5(w) = w^2, so J over 5 is the unit circle."""
    w = complex_cols(res.csv("fiber_a.csv")[0])[:, 0]
    need(np.max(np.abs(np.abs(w) - 1.0)) <= 1e-12, "points off |w| = 1")


def read_ppm_bounded(path: Path, nx: int, ny: int) -> np.ndarray:
    """Bounded cells (black pixels) of a binary PPM slice image."""
    data = path.read_bytes()
    head = f"P6\n{nx} {ny}\n255\n".encode()
    need(data.startswith(head) and len(data) == len(head) + 3 * nx * ny,
         f"{path.name}: bad PPM")
    rgb = np.frombuffer(data, np.uint8, offset=len(head)).reshape(ny, nx, 3)
    return ~rgb.any(axis=2)


def cell_centers(window, n: int) -> np.ndarray:
    re0, re1, im0, im1 = window
    xs = re0 + (np.arange(n) + 0.5) * (re1 - re0) / n
    ys = im0 + (np.arange(n) + 0.5) * (im1 - im0) / n
    return xs[None, :] + 1j * ys[:, None]


def quadratic_escape_grid(c: float, w: np.ndarray, max_iter: int = 1000):
    """Own escape grid for w^2 + c with an attracting 2-cycle: 1 bounded,
    0 escaped, -1 unresolved after max_iter steps."""
    cyc = np.array([(-1 + np.sqrt(-3 - 4 * c + 0j)) / 2,
                    (-1 - np.sqrt(-3 - 4 * c + 0j)) / 2])
    radius = max(2.0, abs(c))
    state = np.full(w.shape, -1)
    idx = np.arange(w.size)
    x = w.ravel().copy()
    for _ in range(max_iter):
        x = x * x + c
        esc = np.abs(x) > radius
        att = np.min(np.abs(x[:, None] - cyc[None, :]), axis=1) < 1e-6
        state.flat[idx[esc]] = 0
        state.flat[idx[att]] = 1
        keep = ~(esc | att)
        idx, x = idx[keep], x[keep]
        if not len(idx):
            break
    return state


def band(state: np.ndarray, width: int = 2) -> np.ndarray:
    """Cells within `width` cells of a cell with another (or no) class."""
    out = state < 0
    pad = np.pad(state, width, mode="edge")
    n, m = state.shape
    for dy in range(-width, width + 1):
        for dx in range(-width, width + 1):
            out |= pad[width + dy:width + dy + n,
                       width + dx:width + dx + m] != state
    return out


def render_checks(resolution: int, window, fibers: list):
    """`fibers` lists, per fiber image, None (format only), "disk" (the
    closed unit disk) or a real c (own escape grid of w^2 + c)."""
    def images(res):
        rep = res.json("render.json")
        need(rep["resolution"] == resolution, "resolution")
        base = (res.outdir / "base.pgm").read_bytes()
        head = f"P5\n{resolution} {resolution}\n255\n".encode()
        need(base.startswith(head)
             and len(base) == len(head) + resolution ** 2, "bad base.pgm")
        need(len(rep["fibers"]) == len(fibers), "fiber count")
        for meta in rep["fibers"]:
            need(meta["window"] == list(window), "fiber window")
            read_ppm_bounded(res.outdir / f"fiber_{meta['index']:02d}.ppm",
                             resolution, resolution)

    def fiber_sets(res):
        for i, kind in enumerate(fibers):
            if kind is None:
                continue
            got = read_ppm_bounded(res.outdir / f"fiber_{i:02d}.ppm",
                                   resolution, resolution)
            w = cell_centers(window, resolution)
            cw = (window[1] - window[0]) / resolution
            if kind == "disk":
                want = np.abs(w) <= 1.0
                skip = np.abs(np.abs(w) - 1.0) <= 2 * cw
            else:
                state = quadratic_escape_grid(kind, w)
                want, skip = state == 1, band(state)
            bad = int(np.sum((got != want) & ~skip))
            need(bad == 0, f"fiber_{i:02d}: {bad} cells differ outside "
                           f"the 2-cell band")

    return [images, fiber_sets]
