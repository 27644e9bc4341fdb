"""The benchmark's workloads: each is one round of `skewdyn` CLI calls,
built from the run's seed, with the checks for every call."""

from __future__ import annotations

import os
from dataclasses import dataclass

from checks import (certify_checks, chain_checks, continue_checks,
                    exit_ok, hausdorff_checks, manifest, render_checks,
                    saddle_checks, separate_checks, theta_checks,
                    trapping_checks, unit_circle)

# Hausdorff tolerance for 2e5-sample fiber clouds of F_{-1}: 1.7 times the
# largest distance seen over 180 sampled pairs; see README.
THETA_TOL = 0.05
THETA_SAMPLES = 200_000
PAIR_SAMPLES = 50_000
CHAIN_N_BASE = 2000
CHAIN_SEEDS_PER_RUN = 4
RENDER_RES = 1024
RENDER_WINDOW = (-2.0, 2.0, -2.0, 2.0)
RENDER_THREADS = min(2, os.cpu_count() or 1)


@dataclass
class Op:
    name: str
    argv: list
    checks: list
    fault: str | None = None   # known fault that makes this call fail


def op(name, argv, checks, fault=None):
    # exit and manifest checks come first; output checks only make sense
    # after a clean exit
    return Op(name, argv, [exit_ok, manifest] + checks, fault)


def certify(seed: int):
    s = ["--seed", str(seed)]
    ops = []
    for label, a in (("0", 0), ("0.1", 0.1), ("-1", -1), ("2", 2),
                     ("i", 1j)):
        ops.append(op(f"certify_Fa({label})",
                      ["certify", "--family", "Fa", f"--a={label}",
                       "--margin", "1e-2"] + s,
                      certify_checks(a, 1e-2)))
    ops.append(op("certify_product(z2,w2-1)",
                  ["certify", "--family", "product", "--p", "0,0,1",
                   "--q=-1,0,1", "--margin", "1e-2"] + s,
                  certify_checks(-1, 1e-2)))
    trap = ["verify-lemma", "trapping", "--family", "Fa", "--a=-1",
            "--r", "0.1", "--m", "50"]
    ops.append(op("trapping_saddles", trap + s, trapping_checks(0.1, 50)))
    ops.append(op("trapping_postcritical",
                  trap + ["--tcloud", "postcritical", "--n-base", "150"] + s,
                  trapping_checks(0.1, 50)))
    return ops


CHAIN_FAMILIES = (
    ("Fa(2)", ["--family", "Fa", "--a=2"], "AllEmpty", False),
    ("Fa(-1)", ["--family", "Fa", "--a=-1"], "AllEqualNonempty", True),
    ("airplane(3)", ["--family", "airplane", "--n", "3"], "AptNeqAcc", False),
    ("s1s2", ["--family", "s1s2"], "AccNeqA", False),
)


def orbits(seed: int):
    ops = []
    for k in range(CHAIN_SEEDS_PER_RUN):
        chain_seed = CHAIN_SEEDS_PER_RUN * seed + k
        for label, fam, regime, curves in CHAIN_FAMILIES:
            ops.append(op(f"chain_{label}_s{k}",
                          ["chain"] + fam + ["--n-base", str(CHAIN_N_BASE),
                                             "--seed", str(chain_seed)],
                          chain_checks(regime, curves), fault="a"))
    s = ["--seed", str(seed)]
    fa = ["--family", "Fa", "--a=-1"]
    ops.append(op("saddles_p3", ["saddles"] + fa + ["--max-period", "3"] + s,
                  saddle_checks(-1)))
    ops.append(op("saddles_p4", ["saddles"] + fa + ["--max-period", "4"] + s,
                  saddle_checks(-1), fault="b"))
    cont = ["continue", "--family", "Fa", "--from=-1", "--steps", "401",
            "--base-period", "1"]
    ops.append(op("continue_to-0.95", cont + ["--to=-0.95"] + s,
                  continue_checks(-0.95, 401)))
    # the 2-cycle of w^2 + a over z = 1 has multiplier 4(1 + a), which
    # reaches modulus one at a = -1.25 on the way to -2
    ops.append(op("continue_to-2", cont + ["--to=-2"] + s,
                  continue_checks(-2, 401, lost_near=-1.25)))
    ops.append(op("separate", ["separate"] + fa + ["--q=-1,0,1"] + s,
                  separate_checks()))
    return ops


def clouds(seed: int):
    s = ["--seed", str(seed)]
    win = "--window=" + ",".join(str(x) for x in RENDER_WINDOW)
    render = ["render", "--resolution", str(RENDER_RES), win,
              "--threads", str(RENDER_THREADS)]
    return [
        op("hausdorff_theta",
           ["hausdorff", "--family", "Fa", "--a=-1", "--theta",
            "0.5,1.0,2.0", "--n-samples", str(THETA_SAMPLES)] + s,
           hausdorff_checks([(f"fiber_{i}.csv", f"ref_{i}.csv")
                             for i in range(3)], THETA_SAMPLES)
           + theta_checks(THETA_TOL), fault="a"),
        op("hausdorff_fig3_5_-4",
           ["hausdorff", "--family", "fig3", "--fiber-at", "5",
            "--fiber-b=-4", "--n-samples", str(PAIR_SAMPLES)] + s,
           hausdorff_checks([("fiber_a.csv", "fiber_b.csv")], PAIR_SAMPLES)
           + [unit_circle], fault="a"),
        # p(5) = 5, q_5 = w^2; p(-4) = -4, q_{-4} = w^2 - 0.9
        op("render_fig3",
           render + ["--family", "fig3", "--fiber-at", "5,-4"] + s,
           render_checks(RENDER_RES, RENDER_WINDOW, ["disk", -0.9])),
        op("render_airplane(3)",
           render + ["--family", "airplane", "--n", "3",
                     "--fiber-at", "beta"] + s,
           render_checks(RENDER_RES, RENDER_WINDOW, [None])),
    ]


WORKLOADS = {"certify": certify, "orbits": orbits, "clouds": clouds}

# the check each known fault makes fail; any other failure is unexpected
FAULT_CHECKS = {"a": {"csv_strict"}, "b": {"exit_ok"}}
