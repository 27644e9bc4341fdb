import hashlib
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from conftest import validate_schema
from skewdyn import cli
from skewdyn.cli import main, parse_complex, parse_poly
from skewdyn.errors import NumericalError, PreconditionError


def load(outdir, name):
    with open(outdir / name) as fh:
        return json.load(fh)


def check_manifest(outdir):
    mani = load(outdir, "manifest.json")
    validate_schema(mani, "manifest")
    for art in mani["artifacts"]:
        data = (outdir / art["path"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == art["sha256"]
        assert len(data) == art["bytes"]
    return mani


def test_parse_complex():
    assert parse_complex("-1.25") == -1.25
    assert parse_complex("0.5+2i") == 0.5 + 2j
    assert parse_complex("1j") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("(1+2i)") == 1 + 2j


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1+infi", "1e999",
                                  "foo", "", "1 2"])
def test_parse_complex_rejects_malformed_and_non_finite(text):
    with pytest.raises(PreconditionError):
        parse_complex(text)
    with pytest.raises(PreconditionError):
        parse_poly(f"1,{text},1")


@pytest.mark.parametrize("argv", [
    ["certify", "--family", "Fa", "--a=inf"],
    ["certify", "--family", "Fa", "--a=foo"],
    ["certify", "--family", "Fa", "--a=nan"],
    ["certify", "--family", "product", "--p", "0,0,1", "--q=1,x,1"],
    ["chain", "--family", "s1s2", "--s2", "nan,0,1"],
])
def test_bad_numeric_flag_exit_code(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ["certify", "--family", "Fa", "--n-base", "foo"],
    ["chain", "--family", "airplane", "--n", "x"],
    ["hausdorff", "--family", "Fa", "--a=-1", "--theta", "1",
     "--n-samples", "x"],
    ["render", "--family", "fig3", "--fibers", "x"],
    ["render", "--family", "fig3", "--fibers", "0"],
    ["certify", "--family", "Fa", "--threads", "x"],
    ["render", "--family", "fig3", "--resolution", "-5"],
    ["render", "--family", "fig3", "--resolution", "0"],
    ["render", "--family", "fig3", "--resolution", "2.5"],
    ["certify", "--family", "Fa", "--seed=-1"],
    ["separate", "--family", "Fa", "--a=-1", "--n-cloud", "0"],
    ["verify-lemma", "trapping", "--family", "Fa", "--a=-1", "--m", "0"],
    ["continue", "--family", "Fa", "--orbit", "9"],
])
def test_bad_integer_flag_exit_code(tmp_path, argv, capsys):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    assert "precondition failure" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ["certify", "--family", "Fa", "--margin", "foo"],
    ["render", "--family", "fig3", "--window", "1,2"],
    ["render", "--family", "fig3", "--window=2,-2,-2,2"],
    ["render", "--family", "fig3", "--window=nan,2,-2,2"],
    ["hausdorff", "--family", "Fa", "--a=-1", "--theta", "x"],
    ["verify-lemma", "trapping", "--family", "Fa", "--a=-1", "--r", "foo"],
    ["verify-lemma", "box-avoid", "--delta", "inf"],
    ["continue", "--family", "Fa", "--tol", "1e-11x"],
    ["verify-lemma", "trapping", "--family", "Fa", "--a=-1", "--r=-1"],
    ["certify", "--family", "Fa", "--a=-1", "--margin=-5"],
    ["verify-lemma", "box-avoid", "--n", "3", "--delta=-1"],
    ["hausdorff", "--family", "fig3", "--fiber-at", "x", "--fiber-b", "1"],
    ["hausdorff", "--family", "fig3", "--fiber-at", "5"],
    ["hausdorff", "--family", "fig3", "--theta", "1.0"],
])
def test_bad_float_flag_exit_code(tmp_path, argv, capsys):
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 2
    assert "precondition failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pieces", [["--k1", "0", "--k2", "2"],
                                    ["--k1=-1", "--k2", "3"]])
def test_degenerate_piece_counts_exit_code(tmp_path, pieces):
    argv = ["verify-lemma", "construction-constants", *pieces,
            "--out", str(tmp_path / "x")]
    assert main(argv) == 2


def test_parse_poly():
    import numpy as np

    p = parse_poly("w^2-1")
    assert np.array_equal(p.coeffs, np.array([-1.0, 0.0, 1.0]))
    q = parse_poly("0,0,1")
    assert np.array_equal(q.coeffs, np.array([0.0, 0.0, 1.0]))


def test_certify_product(tmp_path):
    out = tmp_path / "c"
    rc = main(["certify", "--family", "product", "--p", "0,0,1",
               "--q=-1,0,1", "--n-base", "300", "--n-j2", "3000",
               "--out", str(out)])
    assert rc == 0
    rep = load(out, "certify.json")
    validate_schema(rep, "certification")
    assert rep["verdict"] == "Certified-P2"
    check_manifest(out)


def test_certify_strict_failure_exit_code(tmp_path):
    out = tmp_path / "cf"
    rc = main(["certify", "--family", "Fa", "--a", "1i", "--strict",
               "--n-base", "300", "--n-j2", "3000", "--out", str(out)])
    assert rc == 4
    rep = load(out, "certify.json")
    assert rep["verdict"].startswith("Failed")


# w^2 - 0.742016 has the attracting fixed point -0.496, multiplier -0.992
NEAR_PARABOLIC = ["--family", "product", "--p", "0,0,1", "--q=-0.742016,0,1"]


def test_certify_near_parabolic_fiber_fails_clause_iii(tmp_path):
    # clause (iii) margin 1 - 0.992: the fixed point must not be reported
    # as a 2-cycle of multiplier 0.992^2
    out = tmp_path / "c"
    assert main(["certify", *NEAR_PARABOLIC, "--n-base", "200",
                 "--n-j2", "2000", "--out", str(out)]) == 0
    rep = load(out, "certify.json")
    assert rep["verdict"] == "Failed(iii)"
    assert abs(rep["clauses"]["iii"]["margin"] - 0.008) < 1e-9


def test_saddles_over_near_parabolic_fiber(tmp_path):
    # over a base n-cycle the fiber fixed point is an n-cycle of multiplier
    # (-0.992)^n, a saddle for n = 2, 3 only
    out = tmp_path / "s1"
    assert main(["saddles", *NEAR_PARABOLIC, "--max-period", "1",
                 "--out", str(out)]) == 0
    assert load(out, "saddles.json")["count"] == 0
    out = tmp_path / "s3"
    assert main(["saddles", *NEAR_PARABOLIC, "--out", str(out)]) == 0
    orbits = load(out, "saddles.json")["orbits"]
    assert [(o["base_period"], len(o["cycle"])) for o in orbits] == [
        (2, 2), (3, 3), (3, 3)]
    for o in orbits:
        assert abs(o["vertical_multiplier_abs"]
                   - 0.992 ** o["base_period"]) < 1e-9


def test_precondition_exit_code(tmp_path):
    # continuation only supports the twisted quadratic family
    rc = main(["continue", "--family", "fig3",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    # an empty base sample is a precondition failure, not a traceback
    rc = main(["certify", "--family", "Fa", "--n-base", "0",
               "--out", str(tmp_path / "y")])
    assert rc == 2
    # only the airplane family defines the base fixed point beta
    rc = main(["render", "--family", "Fa", "--a=-1", "--fiber-at", "beta",
               "--out", str(tmp_path / "z")])
    assert rc == 2
    assert not (tmp_path / "z").exists()


@pytest.mark.parametrize("argv", [
    ["hausdorff", "--family", "fig3", "--fiber-at", "100", "--fiber-b", "5"],
    ["hausdorff", "--family", "product", "--p", "0,0,0,1",
     "--q", "0.2,-0.5,0,1", "--fiber-at", "2", "--fiber-b", "1"],
])
def test_fiber_over_escaping_base_point_exit_code(tmp_path, argv, capsys):
    # the base orbit of --fiber-at reaches inf, so its fiber maps do too
    rc = main(argv + ["--n-samples", "300", "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "numerical failure" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()  # no empty output directory


def test_unknown_lemma_exit_code(tmp_path):
    rc = main(["verify-lemma", "no-such-check", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_saddles_json(tmp_path):
    out = tmp_path / "s"
    rc = main(["saddles", "--family", "Fa", "--a=-1",
               "--max-period", "2", "--out", str(out)])
    assert rc == 0
    rep = load(out, "saddles.json")
    validate_schema(rep, "saddles")
    assert rep["count"] == len(rep["orbits"]) > 0
    check_manifest(out)


def test_saddles_beyond_period_three(tmp_path):
    # a root-finding failure at some divisor period skips that candidate
    # instead of aborting the scan with exit 3
    out = tmp_path / "s4"
    rc = main(["saddles", "--family", "Fa", "--a=-1",
               "--max-period", "4", "--out", str(out)])
    assert rc == 0
    rep = load(out, "saddles.json")
    validate_schema(rep, "saddles")
    assert any(o["base_period"] == 4 for o in rep["orbits"])


def test_chain_json(tmp_path):
    out = tmp_path / "ch"
    rc = main(["chain", "--family", "Fa", "--a", "2", "--n-base", "150",
               "--out", str(out)])
    assert rc == 0
    rep = load(out, "chain.json")
    validate_schema(rep, "chain")
    assert rep["regime"] == "AllEmpty"
    check_manifest(out)


def test_verify_lemma_alias_and_strict(tmp_path):
    out = tmp_path / "l"
    rc = main(["verify-lemma", "6.9", "--n", "3", "--strict",
               "--out", str(out)])
    assert rc == 0
    rep = load(out, "lemma.json")
    validate_schema(rep, "lemma")
    assert rep["id"] == "box-self-map" and rep["pass"]
    check_manifest(out)


def test_continue_trace(tmp_path):
    out = tmp_path / "t"
    rc = main(["continue", "--family", "Fa", "--from=-1", "--to=-0.95", "--steps", "6", "--base-period", "1",
               "--out", str(out)])
    assert rc == 0
    rep = load(out, "continue.json")
    validate_schema(rep, "continuation")
    assert rep["outcome"] == "Completed"
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0].startswith("lambda_re,lambda_im,")
    assert len(lines) == 1 + rep["steps"]
    check_manifest(out)


def test_continue_strict_lost_exit_code(tmp_path, capsys):
    argv = ["continue", "--family", "Fa", "--from=-1", "--to=-1.3",
            "--steps", "4"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--strict", "--out", str(tmp_path / "b")]) == 4
    assert capsys.readouterr().out.splitlines() == [
        "Lost(multiplier-crossing)"] * 2
    assert (load(tmp_path / "a", "continue.json")
            == load(tmp_path / "b", "continue.json"))
    check_manifest(tmp_path / "b")


@pytest.mark.parametrize("argv, line", [
    # Fa(2): critical orbits escape mid-walk and too few rows remain
    (["certify", "--family", "Fa", "--a=2", "--n-base", "400",
      "--n-j2", "800"], "Inconclusive"),
    (["certify", "--family", "Fa", "--a=1i", "--n-base", "400",
      "--n-j2", "800"], "Failed(ii)"),
    # epsilon = 0.40 > 0.25 at n = 3
    (["verify-lemma", "box-bound", "--n", "3"], "box-bound: fail"),
])
def test_negative_verdict_exits_4_under_strict_only(tmp_path, capsys, argv,
                                                    line):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--strict", "--out", str(b)]) == 4
    assert capsys.readouterr().out.splitlines() == [line] * 2
    mani_a, mani_b = check_manifest(a), check_manifest(b)
    assert mani_a["artifacts"] == mani_b["artifacts"]
    assert {**mani_a["config"], "strict": True} == mani_b["config"]
    for art in mani_a["artifacts"]:
        assert (a / art["path"]).read_bytes() == (b / art["path"]).read_bytes()


def test_render_images(tmp_path):
    out = tmp_path / "r"
    rc = main(["render", "--family", "fig3", "--resolution", "64",
               "--fiber-at", "5,-4", "--threads", "2", "--out", str(out)])
    assert rc == 0
    pgm = (out / "base.pgm").read_bytes()
    assert pgm.startswith(b"P5\n64 64\n255\n")
    for name in ("fiber_00.ppm", "fiber_01.ppm"):
        ppm = (out / name).read_bytes()
        assert ppm.startswith(b"P6\n64 64\n255\n")
    rep = load(out, "render.json")
    validate_schema(rep, "render")
    check_manifest(out)


def assert_independent_of_threads(tmp_path, capsys, args):
    """Run args at --threads 1, 2 and 3: the same stdout, and the same
    artifacts, byte for byte, in the same manifest order.  Returns the
    artifact names."""
    runs = []
    for t in (1, 2, 3):
        out = tmp_path / f"t{t}"
        assert main(args + ["--threads", str(t), "--out", str(out)]) == 0
        names = [a["path"] for a in check_manifest(out)["artifacts"]]
        runs.append((capsys.readouterr().out, names,
                     [(out / name).read_bytes() for name in names]))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    return runs[0][1]


def test_render_is_independent_of_threads(tmp_path, capsys):
    names = assert_independent_of_threads(
        tmp_path, capsys, ["render", "--family", "fig3", "--resolution", "48",
                           "--fiber-at", "5,-4"])
    assert names == ["base.pgm", "fiber_00.ppm", "fiber_01.ppm",
                     "render.json"]


def test_single_fiber_render_is_independent_of_threads(tmp_path, capsys):
    names = assert_independent_of_threads(
        tmp_path, capsys, ["render", "--family", "airplane", "--n", "3",
                           "--fiber-at", "beta", "--resolution", "48"])
    assert names == ["base.pgm", "fiber_00.ppm", "render.json"]


@pytest.mark.parametrize("maps", [
    ["--p=-1,0,1", "--q=-0.2,0,1", "--fiber-at=0,-1"],  # base 2-cycle 0 <-> -1
    ["--p=0,0,1", "--q=-0.9,0,1", "--fiber-at=-1"],     # -1 -> 1 -> 1
])
def test_render_over_exact_base_cycles_is_independent_of_threads(
        tmp_path, capsys, maps):
    args = ["render", "--family", "product", "--resolution", "48", *maps]
    names = assert_independent_of_threads(tmp_path, capsys, args)
    assert "fiber_00.ppm" in names


def test_separate_report(tmp_path):
    out = tmp_path / "sep"
    rc = main(["separate", "--family", "Fa", "--a=-1", "--q=-1,0,1",
               "--steps-around", "128", "--n-cloud", "300",
               "--out", str(out)])
    assert rc == 0
    rep = load(out, "separate.json")
    validate_schema(rep, "separation")
    assert rep["A"] == 2 and rep["B"] == 1
    assert rep["verdict"] == "Separated"
    check_manifest(out)


def test_hausdorff_rotation(tmp_path):
    out = tmp_path / "h"
    rc = main(["hausdorff", "--family", "Fa", "--a=-1", "--theta", "1.0",
               "--n-samples", "2000", "--out", str(out)])
    assert rc == 0
    rep = load(out, "hausdorff.json")
    validate_schema(rep, "hausdorff")
    assert rep["rows"][0]["hausdorff"] < 0.1
    check_manifest(out)


@pytest.mark.parametrize("args", [
    ["--family", "Fa", "--a=-1", "--theta", "0.5,2.0"],
    ["--family", "fig3", "--fiber-at", "5", "--fiber-b=-4"],
])
def test_hausdorff_is_independent_of_threads(tmp_path, capsys, args):
    names = assert_independent_of_threads(
        tmp_path, capsys, ["hausdorff", *args, "--n-samples", "3000"])
    csvs = (["fiber_a.csv", "fiber_b.csv"] if "--fiber-at" in args
            else ["fiber_0.csv", "ref_0.csv", "fiber_1.csv", "ref_1.csv"])
    assert names == csvs + ["hausdorff.json"]


def test_numerical_failure_in_a_pooled_distance_exits_3(tmp_path, capsys,
                                                        monkeypatch):
    threads = []

    def fail(a, b, workers=1):
        threads.append(threading.current_thread())
        raise NumericalError("distance failed")

    monkeypatch.setattr(cli, "hausdorff_distance", fail)
    out = tmp_path / "h"
    assert main(["hausdorff", "--family", "Fa", "--a=-1", "--theta",
                 "0.5,2.0", "--n-samples", "500", "--threads", "2",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: distance failed" in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()
    assert threads and threading.main_thread() not in threads


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = Fa\na = 2\nn-base = 120\n# comment\n")
    out1 = tmp_path / "o1"
    rc = main(["chain", "--config", str(cfg), "--out", str(out1)])
    assert rc == 0
    mani = check_manifest(out1)
    assert mani["config"]["a"] == "2"
    assert mani["config"]["n_base"] == "120"
    # a flag overrides the config value
    out2 = tmp_path / "o2"
    rc = main(["chain", "--config", str(cfg), "--n-base", "150",
               "--out", str(out2)])
    assert rc == 0
    mani2 = check_manifest(out2)
    assert mani2["config"]["n_base"] == "150"


def test_config_option_forms(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = Fa\na = 2\nn-base = 120\n")
    out = tmp_path / "o"
    assert main(["chain", f"--config={cfg}", "--out", str(out)]) == 0
    assert check_manifest(out)["config"]["n_base"] == "120"
    # a trailing --config without a file is a usage error (exit 2)
    with pytest.raises(SystemExit) as exc:
        main(["chain", "--family", "Fa", "--config"])
    assert exc.value.code == 2
    # a config file that cannot be read, or holds a line without "=", is a
    # precondition failure (exit 2), not a traceback
    bad = tmp_path / "bad.cfg"
    bad.write_text("family Fa\n")
    for path in (tmp_path / "nope.cfg", tmp_path, bad):
        assert main(["chain", "--family", "Fa", "--config", str(path),
                     "--out", str(out)]) == 2


def test_rerun_is_byte_identical(tmp_path):
    args = ["chain", "--family", "Fa", "--a=-1", "--n-base", "120",
            "--seed", "3"]
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("chain.json", "apt.csv", "acc.csv", "j2.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# A fresh interpreter imports skewdyn.cli from src, then builds the parser
# (no arguments) or runs main(argv), and prints the exit code and the
# scipy and orjson modules it has loaded as JSON on its last line.
_FRESH = """
import json, sys
sys.path.insert(0, sys.argv[1])
import skewdyn.cli
argv = sys.argv[2:]
rc = 0
if argv:
    rc = skewdyn.cli.main(argv)
else:
    skewdyn.cli.build_parser()
mods = sorted(m for m in sys.modules
              if m.partition(".")[0] in ("scipy", "orjson"))
print(json.dumps([rc, mods]))
"""
_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fresh_run(argv=()):
    done = subprocess.run([sys.executable, "-c", _FRESH, _SRC, *argv],
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_start_up_loads_no_scipy():
    # scipy.spatial alone takes about 0.3 s to import: it loads on the
    # first KD-tree build (sets._kdtree), not at start-up; orjson loads on
    # the first CSV (sets._csv_rows)
    assert _fresh_run() == [0, []]


@pytest.mark.parametrize("argv", [
    ["render", "--family", "fig3", "--resolution", "32", "--fiber-at", "5",
     "--threads", "2"],
    ["saddles", "--family", "Fa", "--a=-1", "--max-period", "2"],
    ["continue", "--family", "Fa", "--from=-1", "--to=-0.95", "--steps", "3",
     "--base-period", "1"],
    ["separate", "--family", "Fa", "--a=-1", "--q=-1,0,1",
     "--steps-around", "16"],
    ["verify-lemma", "box-self-map", "--n", "3"],
])
def test_subcommands_without_kd_trees_leave_scipy_spatial_unloaded(
        tmp_path, argv):
    rc, modules = _fresh_run(argv + ["--out", str(tmp_path / "o")])
    assert rc == 0
    assert "scipy.spatial" not in modules
    # of these, only continue writes a CSV
    assert ("orjson" in modules) == (argv[0] == "continue")


def test_certify_loads_scipy_spatial(tmp_path):
    rc, modules = _fresh_run(
        ["certify", "--family", "product", "--p", "0,0,1", "--q=-1,0,1",
         "--n-base", "50", "--n-j2", "100", "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "scipy.spatial" in modules
