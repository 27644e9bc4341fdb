"""Command-line surface: rendering, certification, chain classification,
saddle listing, quantitative lemma checks, continuation, separation
evidence, and Hausdorff comparisons.

Every command writes its artifacts into the output directory together with
a JSON manifest listing each file with a sha256 content hash.  Exit codes:
0 success, 2 precondition failure, 3 numerical failure, 4 negative verdict
under --strict (certify Failed, verify-lemma fail, continue Lost).
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np

from .chain import chain_report
from .contin import ParamPath, continue_orbit, separation_evidence, trace_to_csv
from .critpost import find_saddles, certify_axiom_a, critical_locus, \
    postcritical_cloud
from .engine import Rect, derive_escape_radius
from .errors import NumericalError, PreconditionError
from .families import build_s1s2, make_Fa, make_airplane_skew, make_fig3, \
    make_product
from .lemmas import LEMMA_CHECKS, check_s1s2_bounds, check_s1s2_constants, \
    check_trapping
from .poly import Poly1
from .sets import PointCloud, base_slice, cloud_to_csv, fiber_slice, \
    hausdorff_distance, sample_J2_inverse, sample_base_julia, \
    sample_fiber_julia, slice_to_pgm, slice_to_ppm

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3
EXIT_VERDICT = 4

LEMMA_ALIASES = {
    "6.4": "box-bound",
    "6.5": "escape-ring",
    "6.7": "ray-surrogate",
    "6.8": "strip-escape",
    "6.9": "box-self-map",
    "6.10": "box-avoid",
    "7.2": "construction-constants",
    "7.3": "construction-bounds",
    "3.1": "trapping",
}


_IMAG_UNIT = re.compile(r"i(?![a-z])")


def parse_complex(text) -> complex:
    """A finite complex number from '-1.25', '0.5+2i', '1j', ...; malformed
    or non-finite values are precondition failures."""
    if isinstance(text, (int, float, complex)):
        z = complex(text)
    else:
        # 'i' as the imaginary unit, but not the one in 'inf'
        try:
            z = complex(_IMAG_UNIT.sub("j", str(text).strip()))
        except ValueError:
            raise PreconditionError(f"malformed number {text!r}") from None
    if not cmath.isfinite(z):
        raise PreconditionError(f"non-finite number {text!r}")
    return z


_MONOMIAL = re.compile(
    r"^\s*w\s*\^\s*(\d+)\s*(?:([+-])\s*([0-9i j.]+))?\s*$")


def parse_poly(text) -> Poly1:
    """Parse 'c0,c1,...' coefficient lists or 'w^d [+- c]' shorthand."""
    t = str(text).strip()
    m = _MONOMIAL.match(t)
    if m:
        d = int(m.group(1))
        c = np.zeros(d + 1, dtype=complex)
        c[d] = 1.0
        if m.group(2):
            sign = -1.0 if m.group(2) == "-" else 1.0
            c[0] = sign * parse_complex(m.group(3))
        return Poly1(c)
    return Poly1([parse_complex(x) for x in t.split(",")])


def int_flag(ns, name: str, minimum: int = 1) -> int:
    """The integer value of the flag with argparse dest `name`; a
    non-integer or a value below `minimum` is a precondition failure."""
    flag, text = "--" + name.replace("_", "-"), getattr(ns, name)
    try:
        value = int(text)
    except ValueError:
        raise PreconditionError(f"{flag} must be an integer, got {text!r}") \
            from None
    if value < minimum:
        raise PreconditionError(f"{flag} must be >= {minimum}, got {value}")
    return value


def _finite_float(flag: str, text) -> float:
    try:
        value = float(text)
    except ValueError:
        raise PreconditionError(f"{flag} must be a number, got {text!r}") \
            from None
    if not math.isfinite(value):
        raise PreconditionError(f"{flag} must be finite, got {text!r}")
    return value


def float_flag(ns, name: str) -> float:
    """The float value of the flag with argparse dest `name`; a malformed,
    non-finite or non-positive value is a precondition failure (every float
    flag is a radius, margin or tolerance)."""
    flag = "--" + name.replace("_", "-")
    value = _finite_float(flag, getattr(ns, name))
    if value <= 0.0:
        raise PreconditionError(f"{flag} must be > 0, got {value}")
    return value


def float_list_flag(ns, name: str) -> list:
    """The comma-separated float values of the flag with argparse dest
    `name`; a malformed or non-finite one is a precondition failure."""
    flag, text = "--" + name.replace("_", "-"), str(getattr(ns, name))
    return [_finite_float(flag, tok) for tok in text.split(",")]


def build_family(ns):
    """Construct the addressed example map from parsed flags."""
    name = ns.family
    if name is None:
        raise PreconditionError("--family is required")
    if name == "Fa":
        return make_Fa(parse_complex(ns.a))
    if name == "airplane":
        return make_airplane_skew(int_flag(ns, "n"))
    if name == "fig3":
        return make_fig3()
    if name == "s1s2":
        f, _ = build_s1s2(parse_poly(ns.s1), parse_poly(ns.s2),
                          int_flag(ns, "k1"), int_flag(ns, "k2"),
                          seed=int_flag(ns, "family_seed", 0))
        return f
    if name == "product":
        return make_product(parse_poly(ns.p), parse_poly(ns.q))
    raise PreconditionError(f"unknown family {name!r}")


def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return _json_ready(obj.tolist())
    return obj


class Emitter:
    """Collects artifacts in the output directory and writes the manifest."""

    def __init__(self, outdir: str, command: str, config: dict):
        self.outdir = outdir
        self.command = command
        self.config = config
        self.artifacts = []
        os.makedirs(outdir, exist_ok=True)

    def write(self, name: str, data) -> str:
        if isinstance(data, str):
            data = data.encode()
        path = os.path.join(self.outdir, name)
        with open(path, "wb") as fh:
            fh.write(data)
        self.artifacts.append({
            "path": name,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
        })
        return path

    def write_json(self, name: str, obj) -> str:
        return self.write(name, json.dumps(_json_ready(obj), sort_keys=True,
                                           indent=2) + "\n")

    def finish(self):
        manifest = {
            "command": self.command,
            "config": _json_ready(self.config),
            "artifacts": self.artifacts,
        }
        path = os.path.join(self.outdir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return path


def _ns_config(ns) -> dict:
    skip = {"func", "config", "out"}
    return {k: v for k, v in vars(ns).items()
            if k not in skip and v is not None and not callable(v)}


# ---------------------------------------------------------------- commands


def cmd_render(ns) -> int:
    f = build_family(ns)
    params = derive_escape_radius(f)
    res, threads = int_flag(ns, "resolution"), int_flag(ns, "threads")
    n_fibers = int_flag(ns, "fibers") if ns.fibers else None
    window = None
    if ns.window:
        vals = float_list_flag(ns, "window")
        if len(vals) != 4 or not (vals[0] < vals[1] and vals[2] < vals[3]):
            raise PreconditionError(
                "--window must be re_min,re_max,im_min,im_max with "
                f"re_min < re_max and im_min < im_max, got {ns.window!r}")
        window = Rect(*vals)

    # fiber targets
    targets = []
    if ns.fiber_at is not None:
        for tok in str(ns.fiber_at).split(","):
            tok = tok.strip()
            if tok == "beta":
                if "beta" not in f.meta:
                    raise PreconditionError(
                        "--fiber-at beta needs --family airplane")
                targets.append(complex(f.meta["beta"]))
            else:
                targets.append(parse_complex(tok))
    elif n_fibers:
        cloud = sample_base_julia(f.p, max(256, 8 * n_fibers),
                                  seed=int_flag(ns, "seed", 0))
        step = max(1, len(cloud) // n_fibers)
        targets = list(cloud.points[::step][:n_fibers])

    em = Emitter(ns.out, "render", _ns_config(ns))
    em.write("base.pgm", slice_to_pgm(base_slice(f.p, params, (res, res))))

    def one(i_z):
        i, zt = i_z
        sl = fiber_slice(f, zt, window=window, resolution=(res, res),
                         params=params)
        return i, zt, slice_to_ppm(sl), sl.window

    fibers_meta = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for i, zt, ppm, w in sorted(pool.map(one, enumerate(targets))):
            em.write(f"fiber_{i:02d}.ppm", ppm)
            fibers_meta.append({"index": i, "z": zt,
                                "window": [w.re_min, w.re_max,
                                           w.im_min, w.im_max]})
    em.write_json("render.json", {
        "family": ns.family, "resolution": res,
        "escape_radius": params.radius, "base_radius": params.base_radius,
        "fibers": fibers_meta,
    })
    em.finish()
    return EXIT_OK


def cmd_certify(ns) -> int:
    f = build_family(ns)
    seed, margin = int_flag(ns, "seed", 0), float_flag(ns, "margin")
    base = sample_base_julia(f.p, int_flag(ns, "n_base"), seed=seed)
    j2 = sample_J2_inverse(f, int_flag(ns, "n_j2"), seed=seed + 1)
    params = derive_escape_radius(f, base_points=base.points)
    rep = certify_axiom_a(f, base, j2, margin=margin, params=params)
    em = Emitter(ns.out, "certify", _ns_config(ns))
    em.write_json("certify.json", asdict(rep))
    em.finish()
    print(rep.verdict)
    if ns.strict and not rep.verdict.startswith("Certified"):
        return EXIT_VERDICT
    return EXIT_OK


def cmd_chain(ns) -> int:
    f = build_family(ns)
    rep = chain_report(f, n_base=int_flag(ns, "n_base"),
                       seed=int_flag(ns, "seed", 0))
    em = Emitter(ns.out, "chain", _ns_config(ns))
    clouds = rep.pop("clouds")
    for key in ("apt", "acc", "j2", "probe"):
        if key in clouds and len(clouds[key]):
            em.write(f"{key}.csv", cloud_to_csv(clouds[key]))
    em.write_json("chain.json", rep)
    em.finish()
    print(rep["regime"])
    return EXIT_OK


def cmd_saddles(ns) -> int:
    f = build_family(ns)
    sads = find_saddles(f, max_base_period=int_flag(ns, "max_period"))
    em = Emitter(ns.out, "saddles", _ns_config(ns))
    em.write_json("saddles.json", {
        "count": len(sads),
        "orbits": [{
            "base_period": s.base_period,
            "base_point": s.base_point,
            "fiber_point": s.fiber_point,
            "base_multiplier_abs": abs(s.base_multiplier),
            "vertical_multiplier_abs": abs(s.vertical_multiplier),
            "cycle": s.cycle,
        } for s in sads],
    })
    em.finish()
    print(f"{len(sads)} saddle orbit(s)")
    return EXIT_OK


def cmd_verify_lemma(ns) -> int:
    lemma = LEMMA_ALIASES.get(ns.lemma, ns.lemma)
    if lemma not in LEMMA_CHECKS:
        raise PreconditionError(
            f"unknown check {ns.lemma!r}; known: "
            + ", ".join(sorted(LEMMA_CHECKS) + sorted(LEMMA_ALIASES)))
    if lemma in ("construction-constants", "construction-bounds"):
        s1, s2 = parse_poly(ns.s1), parse_poly(ns.s2)
        f, consts = build_s1s2(s1, s2, int_flag(ns, "k1"), int_flag(ns, "k2"),
                               seed=int_flag(ns, "family_seed", 0))
        if lemma == "construction-constants":
            rep = check_s1s2_constants(consts, s1, s2)
        else:
            rep = check_s1s2_bounds(f, consts, seed=int_flag(ns, "seed", 0))
    elif lemma == "trapping":
        f = build_family(ns)
        seed, m = int_flag(ns, "seed", 0), int_flag(ns, "m")
        r = float_flag(ns, "r")
        base = sample_base_julia(f.p, int_flag(ns, "n_base"), seed=seed)
        j2 = sample_J2_inverse(f, int_flag(ns, "n_j2"), seed=seed + 1)
        params = derive_escape_radius(f, base_points=base.points)
        if ns.tcloud == "saddles":
            sads = find_saddles(f)
            if not sads:
                raise PreconditionError("no saddle orbits found")
            t_cloud = PointCloud(np.concatenate([s.cycle for s in sads]),
                                 tag="Lambda")
        else:
            crit = critical_locus(f, base, params=params)
            t_cloud = postcritical_cloud(f, crit,
                                         n_iter=int_flag(ns, "n_iter"),
                                         params=params)
        rep = check_trapping(f, t_cloud, j2, r=r, m=m)
    else:
        kwargs = {"n": int_flag(ns, "n"), "seed": int_flag(ns, "seed", 0)}
        if lemma == "box-self-map":
            kwargs["delta_prime"] = float_flag(ns, "delta")
        elif lemma == "box-avoid":
            kwargs["delta"] = float_flag(ns, "delta")
        rep = LEMMA_CHECKS[lemma](**kwargs)
    em = Emitter(ns.out, "verify-lemma", _ns_config(ns))
    em.write_json("lemma.json", rep)
    em.finish()
    print(f"{rep['id']}: {'pass' if rep['pass'] else 'fail'}")
    if ns.strict and not rep["pass"]:
        return EXIT_VERDICT
    return EXIT_OK


def cmd_continue(ns) -> int:
    if ns.family != "Fa":
        raise PreconditionError("continuation paths are supported for the "
                                "Fa family (parameter a)")
    a0 = parse_complex(getattr(ns, "from"))
    a1 = parse_complex(ns.to)
    f0 = make_Fa(a0)
    period, orbit = int_flag(ns, "base_period"), int_flag(ns, "orbit", 0)
    tol = float_flag(ns, "tol")
    sads = find_saddles(f0, max_base_period=period)
    sads = [s for s in sads if s.base_period == period]
    if orbit >= len(sads):
        raise PreconditionError(f"--orbit {orbit} needs {orbit + 1} saddle "
                                f"orbits of base period {period} at the "
                                f"start parameter; found {len(sads)}")
    start = sads[orbit]
    samples = a0 + (a1 - a0) * np.linspace(0.0, 1.0, int_flag(ns, "steps", 2))
    path = ParamPath(build=lambda a: make_Fa(a), samples=samples, name="a")
    trace = continue_orbit(path, start, tol=tol)
    em = Emitter(ns.out, "continue", _ns_config(ns))
    em.write("trace.csv", trace_to_csv(trace))
    em.write_json("continue.json", {
        "outcome": trace.outcome,
        "lost_at": trace.lost_at,
        "steps": len(trace.steps),
        "end": {"lambda": trace.steps[-1].lam, "z": trace.steps[-1].z,
                "w": trace.steps[-1].w},
    })
    em.finish()
    print(trace.outcome)
    if ns.strict and trace.outcome.startswith("Lost"):
        return EXIT_VERDICT
    return EXIT_OK


def cmd_separate(ns) -> int:
    fA = build_family(ns)
    fB = make_product(Poly1([0.0] * fA.degree + [1.0]), parse_poly(ns.q))
    rep = separation_evidence(fA, fB, n_steps=int_flag(ns, "steps_around"),
                              n_cloud=int_flag(ns, "n_cloud"),
                              seed=int_flag(ns, "seed", 0))
    em = Emitter(ns.out, "separate", _ns_config(ns))
    em.write_json("separate.json", rep)
    em.finish()
    print(f"degrees ({rep['A']}, {rep['B']}): {rep['verdict']}")
    return EXIT_OK


def cmd_hausdorff(ns) -> int:
    f = build_family(ns)
    n_samples, seed = int_flag(ns, "n_samples"), int_flag(ns, "seed", 0)
    workers = int_flag(ns, "threads")
    if ns.theta is not None:
        thetas = float_list_flag(ns, "theta")
        if ns.family != "Fa":
            raise PreconditionError("--theta comparisons need --family Fa")
    elif ns.fiber_at is None or ns.fiber_b is None:
        raise PreconditionError("need --theta or both --fiber-at and "
                                "--fiber-b")
    else:
        za, zb = parse_complex(ns.fiber_at), parse_complex(ns.fiber_b)
    em = Emitter(ns.out, "hausdorff", _ns_config(ns))
    rows = []
    if ns.theta is not None:
        g = f.meta["g"]
        ref1d = sample_base_julia(g, n_samples, seed=seed + 1)
        for i, th in enumerate(thetas):
            zb = np.exp(1j * th)
            fiber = sample_fiber_julia(f, zb, n_samples, seed=seed)
            ref = PointCloud(np.exp(1j * th / 2.0) * ref1d.points,
                             tag="rotated-1d", seed=ref1d.seed)
            d = hausdorff_distance(fiber, ref, workers)
            em.write(f"fiber_{i}.csv", cloud_to_csv(fiber))
            em.write(f"ref_{i}.csv", cloud_to_csv(ref))
            rows.append({"theta": th, "hausdorff": d})
            print(f"theta={th}: {d:.6f}")
    else:
        ca = sample_fiber_julia(f, za, n_samples, seed=seed)
        cb = sample_fiber_julia(f, zb, n_samples, seed=seed)
        d = hausdorff_distance(ca, cb, workers)
        em.write("fiber_a.csv", cloud_to_csv(ca))
        em.write("fiber_b.csv", cloud_to_csv(cb))
        rows.append({"z_a": za, "z_b": zb, "hausdorff": d})
        print(f"hausdorff: {d:.6f}")
    em.write_json("hausdorff.json", {"rows": rows})
    em.finish()
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _add_family_flags(sub):
    sub.add_argument("--family", choices=["Fa", "airplane", "fig3", "s1s2",
                                          "product"])
    sub.add_argument("--a", default="0", help="Fa parameter")
    sub.add_argument("--n", default="3", help="airplane base period / "
                                              "check scale")
    sub.add_argument("--s1", default="w^2")
    sub.add_argument("--s2", default="w^2-1")
    sub.add_argument("--k1", default="1")
    sub.add_argument("--k2", default="1")
    sub.add_argument("--family-seed", dest="family_seed", default="0")
    sub.add_argument("--p", default="0,0,1", help="product base coefficients")
    sub.add_argument("--q", default="-1,0,1",
                     help="product fiber coefficients")
    sub.add_argument("--seed", default="7")
    sub.add_argument("--strict", action="store_true")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="skewdyn",
        description="Explore and certify Axiom A polynomial skew products "
                    "of C^2.")
    ap.add_argument("--config", help="key = value file; flags override it")
    subs = []

    sp = ap.add_subparsers(dest="command", required=True)

    def sub(name, fn, **kw):
        s = sp.add_parser(name, **kw)
        _add_family_flags(s)
        s.add_argument("--out", default="out", help="output directory")
        s.add_argument("--threads", default=str(os.cpu_count() or 1))
        s.add_argument("--config", help="key = value file; flags override it")
        s.set_defaults(func=fn)
        subs.append(s)
        return s

    s = sub("render", cmd_render, help="escape-time images of base and "
                                       "fiber slices")
    s.add_argument("--fibers", default=None, help="number of fiber images")
    s.add_argument("--fiber-at", dest="fiber_at", default=None,
                   help="comma list of base points ('beta' allowed)")
    s.add_argument("--resolution", default="512")
    s.add_argument("--window", default=None,
                   help="re_min,re_max,im_min,im_max")

    s = sub("certify", cmd_certify, help="four-clause hyperbolicity "
                                         "certification")
    s.add_argument("--n-base", dest="n_base", default="2000")
    s.add_argument("--n-j2", dest="n_j2", default="4000")
    s.add_argument("--margin", default="1e-2")

    s = sub("chain", cmd_chain, help="accumulation-chain regime report")
    s.add_argument("--n-base", dest="n_base", default="400")

    s = sub("saddles", cmd_saddles, help="saddle periodic orbits")
    s.add_argument("--max-period", dest="max_period", default="3")

    s = sub("verify-lemma", cmd_verify_lemma,
            help="quantitative checks with measured margins")
    s.add_argument("lemma", help="check id or alias")
    s.add_argument("--delta", default="0.2")
    s.add_argument("--tcloud", choices=["saddles", "postcritical"],
                   default="saddles")
    s.add_argument("--r", default="0.1")
    s.add_argument("--m", default="50")
    s.add_argument("--n-base", dest="n_base", default="500")
    s.add_argument("--n-j2", dest="n_j2", default="4000")
    s.add_argument("--n-iter", dest="n_iter", default="150")

    s = sub("continue", cmd_continue, help="saddle-orbit continuation along "
                                           "a parameter path")
    s.add_argument("--from", default="-1")
    s.add_argument("--to", default="-0.95")
    s.add_argument("--steps", default="11")
    s.add_argument("--base-period", dest="base_period", default="2")
    s.add_argument("--orbit", default="0", help="index among saddles of the "
                                                "requested period")
    s.add_argument("--tol", default="1e-11")

    s = sub("separate", cmd_separate, help="fiber-monodromy separation "
                                           "evidence vs a product map")
    s.add_argument("--steps-around", dest="steps_around", default="192")
    s.add_argument("--n-cloud", dest="n_cloud", default="400")

    s = sub("hausdorff", cmd_hausdorff, help="Hausdorff distances between "
                                             "fiber clouds")
    s.add_argument("--theta", default=None,
                   help="comma list; compares J_{e^{i theta}} to the "
                        "rotated 1D cloud (Fa only)")
    s.add_argument("--fiber-at", dest="fiber_at", default=None)
    s.add_argument("--fiber-b", dest="fiber_b", default=None)
    s.add_argument("--n-samples", dest="n_samples", default="10000")

    return ap, subs


def load_config(path: str) -> dict:
    cfg = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise PreconditionError(f"cannot read config file: {e}") from None
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PreconditionError(f"bad config line: {line!r}")
        key, val = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap, subs = build_parser()
    # apply config-file defaults before parsing so flags override them
    pre = argparse.ArgumentParser(prog=ap.prog, add_help=False)
    pre.add_argument("--config")
    cfg_path = pre.parse_known_args(argv)[0].config
    try:
        if cfg_path is not None:
            cfg = load_config(cfg_path)
            for s in subs:
                known = {a.dest for a in s._actions}
                s.set_defaults(**{k: v for k, v in cfg.items() if k in known})
        ns = ap.parse_args(argv)
        int_flag(ns, "threads")  # every subcommand takes it; check it once
        return ns.func(ns)
    except PreconditionError as e:
        print(f"precondition failure: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
