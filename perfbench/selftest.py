"""Self-tests of the benchmark's checks: each must reject a tampered
artifact, and a call that exits non-zero must count as failed.

    python3 perfbench/selftest.py

Runs a few small `skewdyn` calls into `.perfbench_out/selftest/`, checks
that their untouched outputs pass, then tampers with one artifact at a
time.  Prints one line per case and exits 1 if any case misbehaves.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import run  # pins BLAS pools and puts the benchmark on sys.path

sys.path.insert(0, str(run.HERE))
sys.path.insert(0, str(run.SRC))

import skewdyn.cli as cli  # noqa: E402

import tracing  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import WORKLOADS, op  # noqa: E402
import checks  # noqa: E402

WORK = run.OUT / "selftest"


def rewrite(res, name: str, data: bytes, fix_manifest: bool = True):
    """Replace an artifact; optionally keep the manifest consistent so that
    only the content check can object."""
    (res.outdir / name).write_bytes(data)
    res._csv.clear()
    if fix_manifest:
        path = res.outdir / "manifest.json"
        man = json.loads(path.read_text())
        for art in man["artifacts"]:
            if art["path"] == name:
                art["sha256"] = hashlib.sha256(data).hexdigest()
                art["bytes"] = len(data)
        path.write_text(json.dumps(man))


def rejects(check, res) -> bool:
    try:
        check(res)
    except CheckFailed:
        return True
    return False


def main() -> int:
    results = []

    def case(label, ok):
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}")

    cert = op("cert", ["certify", "--family", "Fa", "--a=-1", "--n-base",
                       "300", "--n-j2", "1000"], checks.certify_checks(-1, 1e-2))
    res = run.run_call(cli, cert, WORK / "cert")
    case("certify: untouched outputs pass", run.check_call(cert, res) == [])
    text = (res.outdir / "certify.json").read_text()
    flipped = text.replace("Certified-P2", "Failed(ii)")
    rewrite(res, "certify.json", flipped.encode())
    case("certify: flipped verdict rejected", rejects(cert.checks[2], res))
    rewrite(res, "certify.json", text.encode())
    case("certify: restored verdict passes", not rejects(cert.checks[2], res))
    rewrite(res, "certify.json", text.replace("Certified", "Certifiet")
            .encode(), fix_manifest=False)
    case("manifest: hash mismatch rejected", rejects(checks.manifest, res))

    chain = op("chain", ["chain", "--family", "Fa", "--a=-1"],
               checks.chain_checks("AllEqualNonempty", True))
    res = run.run_call(cli, chain, WORK / "chain")
    curves = chain.checks[-1]
    case("chain: only the strict CSV check fails",
         run.check_call(chain, res) in ([], ["csv_strict"]))
    lines = (res.outdir / "apt.csv").read_text().split("\n")
    lines[1] = "0.6,0.8,0.5,0.5"     # |z| = 1, but w != 0 and w^2 != z
    rewrite(res, "apt.csv", "\n".join(lines).encode())
    case("chain: apt point off {w=0} u {w^2=z} rejected",
         rejects(curves, res))

    bad = op("bad", ["saddles", "--family", "Fa", "--a=-1", "--max-period",
                     "4"], checks.saddle_checks(-1), fault="b")
    recs = run.run_round(cli, [bad], WORK, {})
    case("non-zero exit counted as a failed call",
         recs[0]["rc"] != 0 and recs[0]["failed_checks"] == ["exit_ok"]
         and recs[0]["expected"])
    bad.fault = None
    recs = run.run_round(cli, [bad], WORK, {})
    case("non-zero exit without a known fault is unexpected",
         not recs[0]["expected"])

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    case("BENCHMARK.json lists the traced metrics", listed == tracing.PER_LAYER)
    case("BENCHMARK.json lists the workloads",
         [w["name"] for w in spec["workloads"]] == list(WORKLOADS))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
