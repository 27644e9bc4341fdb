"""Run one benchmark workload of the `skewdyn` CLI and print its metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

The run measures set-up (a fresh interpreter importing `skewdyn.cli` and
building its parser, several times), imports `skewdyn` once, then repeats
whole rounds of the workload's CLI calls for about `--seconds` seconds.
Every call's outputs are checked.  The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics` (end-to-end
metrics with `--trace 0`, per-layer metrics with `--trace 1`).  A result
file with each call's checks and artifact SHA-256s goes to
`.perfbench_out/`.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy is imported, here and in children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import skewdyn.cli; skewdyn.cli.build_parser()")


def measure_setup() -> float:
    """Median seconds from interpreter start to a built skewdyn.cli parser."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_call(cli, op, outdir: Path):
    from checks import CallResult

    shutil.rmtree(outdir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(op.argv + ["--out", str(outdir)])
        except SystemExit as e:            # argparse usage errors
            rc = e.code
        except Exception:                  # a traceback is a failed call
            rc = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - t0
    return CallResult(outdir, rc, out.getvalue(), err.getvalue(), seconds)


def check_call(op, res) -> list:
    """Names of the checks this call failed; later checks are skipped
    once the call exited non-zero or its manifest is wrong."""
    from checks import CheckFailed

    failed = []
    for check in op.checks:
        try:
            check(res)
        except Exception as e:             # a check that breaks fails
            if not isinstance(e, CheckFailed):
                e = traceback.format_exception_only(e)[-1].strip()
            failed.append(check.__name__)
            print(f"    {op.name}: {check.__name__} failed: {e}",
                  file=sys.stderr)
            if check.__name__ in ("exit_ok", "manifest"):
                break
    return failed


def run_round(cli, ops, workdir: Path, hashes: dict, tracer=None) -> list:
    """Run and check each call once; one record per call.  A call fails
    when it exits non-zero or any check of its outputs fails; the failure
    is expected when only its known fault's check failed."""
    from workloads import FAULT_CHECKS

    recs = []
    for op in ops:
        hook0 = tracer.hook_s if tracer else 0.0
        res = run_call(cli, op, workdir / op.name)
        traced_s = res.seconds - (tracer.hook_s - hook0 if tracer else 0.0)
        bad = check_call(op, res)
        hashes[op.name] = res.artifacts
        recs.append({"op": op.name, "argv": op.argv, "seconds": res.seconds,
                     "traced_s": traced_s,
                     "rc": res.rc if isinstance(res.rc, int) else 1,
                     "stdout": res.stdout[-500:],
                     "failed_checks": bad, "fault": op.fault,
                     "expected": not set(bad) - FAULT_CHECKS.get(op.fault,
                                                                 set())})
        print(f"  {op.name:28s} {res.seconds:8.3f}s "
              f"{'FAIL ' + ','.join(bad) if bad else 'ok'}", file=sys.stderr)
    return recs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "skewdyn" / "cli.py").is_file():
        print(f"skewdyn sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2

    setup_s = measure_setup()
    sys.path.insert(0, str(SRC))
    import skewdyn.cli as cli

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracing.install(tracer)

    ops = WORKLOADS[args.workload](args.seed)
    rounds, walls, layer_rounds, calls, hashes = [], [], [], [], {}
    n_rounds = 1
    t_start = time.perf_counter()
    while len(rounds) < n_rounds:
        cpu0 = time.process_time()
        if tracer:
            tracer.reset_round()
        recs = run_round(cli, ops, OUT / args.workload, hashes, tracer)
        for rec in recs:
            rec["round"] = len(rounds)
        calls += recs
        walls.append(sum(r["seconds"] for r in recs))
        if tracer:
            cli_s = defaultdict(float)
            for r in recs:
                cli_s[r["argv"][0]] += r["traced_s"]
            layer_rounds.append(tracer.round_metrics(
                cli_s, time.process_time() - cpu0))
        rounds.append(time.perf_counter() - t_start)
        if len(rounds) == 1:
            # whole rounds only: as many as fit the requested time best
            n_rounds = max(1, round(args.seconds / rounds[0]))

    if tracer:
        metrics = {name: {"value": statistics.median(r[name]
                                                     for r in layer_rounds),
                          "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    result = {"correct": all(r["expected"] for r in calls),
              "attempted": len(calls),
              "failed": sum(bool(r["failed_checks"]) for r in calls),
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed,
                  rounds=len(rounds), round_wall_s=walls, calls=calls,
                  artifacts=hashes)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.save(OUT / f"{stem}-spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
