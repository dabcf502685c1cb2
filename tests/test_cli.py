"""End-to-end runs of the command line interface in a subprocess."""

import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from highgirth import FieldSpec, Matrix, vandermonde, write_matrix
from highgirth.cli import build_parser
from highgirth.polarize import read_profile_csv

F = Fraction


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "highgirth.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


@pytest.fixture(scope="module")
def pcm16(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    path = str(base / "h16.txt")
    res = run_cli("construct", "--n", "16", "--s", "1/2", "--select", "top:12", "--out", path)
    assert res.returncode == 0
    return path


# ---------------------------------------------------------------- profile

def test_profile_exact(tmp_path):
    out = str(tmp_path / "prof.csv")
    res = run_cli("profile", "--n", "16", "--s", "1/2", "--out", out)
    assert res.returncode == 0
    exact, values = read_profile_csv(out)
    assert exact and len(values) == 16
    assert sum(values) == 8  # mass conservation at s = 1/2


def test_profile_float_large_n(tmp_path):
    out = str(tmp_path / "proff.csv")
    res = run_cli("profile", "--n", "2048", "--s", "1/3", "--float", "--out", out)
    assert res.returncode == 0
    exact, values = read_profile_csv(out)
    assert not exact and len(values) == 2048


def test_profile_float_refused_for_small_n():
    res = run_cli("profile", "--n", "64", "--s", "1/2", "--float")
    assert res.returncode == 2
    assert "exact" in res.stderr


def test_profile_delta_summary(tmp_path):
    out = str(tmp_path / "p.csv")
    res = run_cli(
        "profile", "--n", "256", "--s", "1/2", "--delta", "1/100", "--out", out
    )
    assert res.returncode == 0
    assert "low" in res.stderr and "high" in res.stderr


def test_profile_bad_rate():
    res = run_cli("profile", "--n", "16", "--s", "3/2")
    assert res.returncode == 2


# ---------------------------------------------------------------- construct

def test_construct_sidecar(pcm16):
    with open(pcm16 + ".json") as fh:
        meta = json.load(fh)
    assert list(meta.keys()) == ["n", "s", "selection", "H"]
    assert meta["n"] == 16 and len(meta["H"]) == 12


def test_construct_nonprime_field(tmp_path):
    res = run_cli(
        "construct", "--n", "4", "--s", "1/2", "--select", "top:2",
        "--field", "gfp:4", "--out", str(tmp_path / "x.txt"),
    )
    assert res.returncode == 2
    assert "prime" in res.stderr


def test_construct_generic_field_roundtrip(tmp_path):
    out = str(tmp_path / "h5.txt")
    res = run_cli(
        "construct", "--n", "8", "--s", "1/2", "--select", "top:4",
        "--field", "gfp:5", "--out", out,
    )
    assert res.returncode == 0
    from highgirth import read_check_matrix

    cm = read_check_matrix(out)
    assert cm.field == FieldSpec.gfp(5)
    assert cm.nchecks == 4


def test_construct_bad_selection(tmp_path):
    res = run_cli(
        "construct", "--n", "8", "--s", "1/2", "--select", "top:9",
        "--out", str(tmp_path / "x.txt"),
    )
    assert res.returncode == 2


# ---------------------------------------------------------------- simulate

def test_simulate_mec_report(pcm16, tmp_path):
    out = str(tmp_path / "r.json")
    res = run_cli(
        "simulate", "mec", "--pcm", pcm16, "--p", "1/2",
        "--trials", "400", "--seed", "5", "--out", out,
    )
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep == json.load(open(out))
    assert list(rep.keys())[:7] == [
        "code", "channel", "p", "p_float", "trials", "seed", "rng_id",
    ]
    assert rep["mismatches"] == 0
    assert rep["p_hat"] == rep["dependence_rate"]
    assert rep["bounds"]["bhatt"] is not None


def test_simulate_threads_do_not_change_bytes(pcm16, tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    for out, threads in ((a, "1"), (b, "4")):
        res = run_cli(
            "simulate", "bsc", "--pcm", pcm16, "--p", "1/20",
            "--trials", "500", "--seed", "7", "--threads", threads, "--out", out,
        )
        assert res.returncode == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_simulate_rejects_float_p(pcm16):
    res = run_cli(
        "simulate", "mec", "--pcm", pcm16, "--p", "0.5",
        "--trials", "10", "--seed", "1",
    )
    # "0.5" parses exactly to 1/2, so this succeeds; garbage does not
    assert res.returncode == 0
    bad = run_cli(
        "simulate", "mec", "--pcm", pcm16, "--p", "half",
        "--trials", "10", "--seed", "1",
    )
    assert bad.returncode == 2


def test_simulate_missing_pcm(tmp_path):
    res = run_cli(
        "simulate", "mec", "--pcm", str(tmp_path / "nope.txt"), "--p", "1/2",
        "--trials", "10", "--seed", "1",
    )
    assert res.returncode == 2


# ---------------------------------------------------------------- analyze

def test_analyze_girth_scan(pcm16, tmp_path):
    out = str(tmp_path / "scan.csv")
    res = run_cli(
        "analyze", "girth-scan", "--matrix", pcm16, "--grid", "1/4,1/2,3/4",
        "--trials", "200", "--seed", "3", "--out", out,
    )
    assert res.returncode == 0
    lines = open(out).read().splitlines()
    assert lines[3] == "s,p_hat,ci_lo,ci_hi,trials"
    rates = [float(l.split(",")[1]) for l in lines[4:]]
    assert rates == sorted(rates, reverse=True)


def test_analyze_oracle_check():
    res = run_cli("analyze", "oracle-check", "--nmax", "4")
    assert res.returncode == 0
    assert "ok" in res.stdout
    assert "mismatch" not in res.stderr


def test_analyze_spark_certified(tmp_path):
    path = str(tmp_path / "vand.txt")
    write_matrix(vandermonde(FieldSpec.rational(), 4, [1, 2, 3, 4, 5, 6, 7, 8]), path)
    res = run_cli("analyze", "spark", "--matrix", path, "--k", "2")
    assert res.returncode == 0
    assert "certified" in res.stdout


def test_analyze_spark_refuted(tmp_path):
    path = str(tmp_path / "dep.txt")
    write_matrix(Matrix.from_rows(FieldSpec.rational(), [[1, 0, 1], [0, 1, 1]]), path)
    res = run_cli("analyze", "spark", "--matrix", path, "--k", "2")
    assert res.returncode == 1
    assert "refuted" in res.stdout


def test_analyze_spark_budget(tmp_path):
    path = str(tmp_path / "big.txt")
    write_matrix(vandermonde(FieldSpec.rational(), 6, list(range(1, 25))), path)
    res = run_cli("analyze", "spark", "--matrix", path, "--k", "3", "--budget", "10")
    assert res.returncode == 3


def test_analyze_l0(tmp_path):
    path = str(tmp_path / "a.txt")
    write_matrix(vandermonde(FieldSpec.rational(), 4, [1, 2, 3, 4, 5, 6]), path)
    res = run_cli("analyze", "l0", "--matrix", path, "--y=0,-3,-21,-117", "--kmax", "2")
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["status"] == "unique"
    assert rep["support"] == [2, 5]


def test_analyze_bound(pcm16, tmp_path):
    out = str(tmp_path / "bound.json")
    res = run_cli("analyze", "bound", "--pcm", pcm16, "--p", "1/20", "--out", out)
    assert res.returncode == 0
    rep = json.loads(res.stdout)
    assert rep["min_distance"] >= 1
    assert rep["tail_dominated_at_min_distance"] is True
    assert rep["bounds"]["union_float"] is not None


def test_output_files_take_the_umask_mode(tmp_path):
    # every file the CLI writes is created as open() would create it, and
    # written atomically: no temporary file stays behind, even on failure
    pcm = str(tmp_path / "h.txt")
    vdm = str(tmp_path / "v.txt")
    write_matrix(vandermonde(FieldSpec.rational(), 4, [1, 2, 3, 4, 5, 6]), vdm)
    runs = [
        ("construct", "--n", "16", "--s", "1/2", "--select", "top:8", "--out", pcm),
        ("profile", "--n", "16", "--s", "1/2", "--out", str(tmp_path / "p.csv")),
        ("simulate", "mec", "--pcm", pcm, "--p", "1/4", "--trials", "20", "--seed", "1",
         "--out", str(tmp_path / "mec.json")),
        ("simulate", "bsc", "--pcm", pcm, "--p", "1/20", "--trials", "20", "--seed", "1",
         "--out", str(tmp_path / "bsc.json")),
        ("analyze", "girth-scan", "--matrix", pcm, "--grid", "0.1,0.2", "--trials", "20",
         "--seed", "1", "--out", str(tmp_path / "scan.csv")),
        ("analyze", "bound", "--pcm", pcm, "--p", "1/20", "--out", str(tmp_path / "bound.json")),
        ("analyze", "l0", "--matrix", vdm, "--y=0,-3,-21,-117", "--kmax", "2",
         "--out", str(tmp_path / "l0.json")),
    ]
    (tmp_path / "taken").mkdir()
    old = os.umask(0o027)
    try:
        for args in runs:
            assert run_cli(*args).returncode == 0, args
        failed = run_cli("profile", "--n", "16", "--s", "1/2", "--out", str(tmp_path / "taken"))
    finally:
        os.umask(old)
    assert failed.returncode == 2
    written = sorted(p.name for p in tmp_path.iterdir() if p.is_file())
    assert written == sorted(
        ["h.txt", "h.txt.json", "v.txt", "p.csv", "mec.json", "bsc.json", "scan.csv",
         "bound.json", "l0.json"]
    )
    for name in written:
        if name != "v.txt":
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o640, name


def test_usage_errors():
    assert run_cli().returncode == 2
    assert run_cli("profile").returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("profile", "--n", "12", "--s", "1/2").returncode == 2  # not a power of 2


# ---------------------------------------------------------------- bad input

def assert_usage_error(res):
    assert res.returncode == 2
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.fixture
def pcm16_top8(tmp_path):
    path = str(tmp_path / "h8.txt")
    res = run_cli("construct", "--n", "16", "--s", "1/2", "--select", "top:8", "--out", path)
    assert res.returncode == 0
    return path


def test_sidecar_must_rebuild_matrix(pcm16_top8):
    # transform rows {1,2,3,4,5,6,8,10} next to the top:8 sidecar (H = [1..7, 9])
    with open(pcm16_top8 + ".json") as fh:
        assert json.load(fh)["H"] == [1, 2, 3, 4, 5, 6, 7, 9]
    from highgirth import sierpinski

    full = sierpinski(16).to_rows()
    write_matrix(Matrix.from_rows(FieldSpec.gf2(), [full[i - 1] for i in (1, 2, 3, 4, 5, 6, 8, 10)]), pcm16_top8)
    res = run_cli(
        "simulate", "mec", "--pcm", pcm16_top8, "--p", "1/4",
        "--trials", "2000", "--seed", "7",
    )
    assert_usage_error(res)
    assert res.stdout == ""


@pytest.mark.parametrize(
    "edit",
    [
        lambda meta: meta.pop("H"),
        lambda meta: meta.pop("selection"),
        lambda meta: meta.update(n="16"),
        lambda meta: meta.update(n=32),
        lambda meta: meta.update(s=0.5),
        lambda meta: meta.update(H=[1, 2, 3, 4, 5, 6, 7, 99]),
        lambda meta: meta.update(selection={"mode": "threshold"}),
    ],
)
def test_sidecar_fields_checked(pcm16_top8, edit):
    with open(pcm16_top8 + ".json") as fh:
        meta = json.load(fh)
    edit(meta)
    with open(pcm16_top8 + ".json", "w") as fh:
        json.dump(meta, fh)
    res = run_cli("simulate", "mec", "--pcm", pcm16_top8, "--p", "1/4", "--trials", "10", "--seed", "7")
    assert_usage_error(res)


@pytest.mark.parametrize("field, entry", [("rational", "1/0"), ("rational", "x"), ("gf2", "1.5")])
def test_bad_matrix_entry(tmp_path, field, entry):
    path = tmp_path / "bad.txt"
    path.write_text(f"2 2 {field}\n1 0\n0 {entry}\n")
    res = run_cli("analyze", "spark", "--matrix", str(path), "--k", "1")
    assert_usage_error(res)
    assert "line 3" in res.stderr


def test_l0_negative_kmax(pcm16):
    res = run_cli("analyze", "l0", "--matrix", pcm16, "--y=" + ",".join(["0"] * 12), "--kmax", "-1")
    assert_usage_error(res)


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("highgirth ")]
    assert len(lines) >= 10
    for ln in lines:
        try:
            build_parser().parse_args(shlex.split(ln, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {ln}")
