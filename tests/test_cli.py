"""Command-line interface: config parsing, checks, and end-to-end runs.

End-to-end tests use deliberately small ensembles (500-2000 paths): they
exercise plumbing (artifact files, manifest, exit codes, determinism across
process counts), not statistical accuracy, which the acceptance suite covers
at production path counts.
"""

import json
import math
from pathlib import Path

import pytest

from qbsde.catalog import kq_threshold
from qbsde.cli import (
    Check,
    ConfigError,
    ExperimentConfig,
    build_spec,
    check_continuum,
    check_figure_kq,
    check_table2,
    main,
    parse_config,
)

BASE = 20240817


def write_config(tmp_path: Path, text: str, name: str = "exp.ini") -> Path:
    path = tmp_path / name
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_parse_full_config(tmp_path):
    path = write_config(tmp_path, """\
[run]
suite = continuum
out = results  ; relative to the cwd

[ensemble]
n_paths = 2000
seed = 7
seeds = 7, 8
n_coarse = 32
T = 0.5

[continuum]
q = -2.0
b_offsets = 0 0.25 1
kind = constant
level = 0.4
""")
    cfg = parse_config(path)
    assert cfg.suite == "continuum"
    assert cfg.out == Path("results")
    assert cfg.n_paths == 2000
    assert cfg.seed == 7
    assert cfg.seeds == (7, 8)
    assert cfg.n_coarse == 32
    assert cfg.T == 0.5  # key case is preserved (T, not t)
    assert cfg.continuum_q == -2.0
    assert cfg.b_offsets == (0.0, 0.25, 1.0)
    assert cfg.continuum_kind == "constant"
    assert cfg.continuum_level == 0.4
    assert cfg.config_path == path
    assert len(cfg.config_sha256) == 64


def test_parse_minimal_defaults(tmp_path):
    path = write_config(tmp_path, "[run]\nsuite = figure-kq\n")
    cfg = parse_config(path)
    assert cfg.out == Path("artifacts")
    assert cfg.n_paths == 100000
    assert cfg.seed == BASE
    assert cfg.seeds == (BASE, 555)
    assert cfg.n_coarse == 64
    assert cfg.T == 1.0
    assert cfg.scales == (0.5, 1.0, 1.5)
    assert cfg.b_offsets == (0.0, 0.5, 1.0)


@pytest.mark.parametrize("body, line, fragment", [
    # line numbers refer to the config text passed to write_config
    ("[run]\nsuite = table2\n\n[bogus]\nx = 1\n", 4, "unknown section"),
    ("[run]\nsuite = table2\nspeed = 3\n", 3, "unknown key"),
    ("[run]\nsuite = table2\n\n[ensemble]\nn_paths = soon\n", 5, "cannot parse"),
    ("[run]\nsuite = table2\n\n[ensemble]\nn_paths = 10\n", 5, "at least 150"),
    ("[run]\nsuite = warp\n", 2, "unknown suite"),
    ("[run]\nsuite = table2\n\n[ensemble]\nseeds = 5 5\n", 5, "distinct"),
    ("[run]\nsuite = table2\n\n[ensemble]\nT = 0\n", 5, "positive"),
    ("[run]\nsuite = table2\n\n[table2]\nq = 0.5\n", 5, "q < 0"),
    ("[run]\nsuite = continuum\n\n[continuum]\nkind = nosol\n", 5,
     "bounded-exposure"),
    ("[run]\nsuite = continuum\n\n[continuum]\nb_offsets = 1 0\n", 5,
     "increasing"),
    # non-finite floats fail at parse time, not mid-suite
    ("[run]\nsuite = table2\n\n[ensemble]\nT = inf\n", 5, "cannot parse"),
    ("[run]\nsuite = table2\n\n[table2]\nq = -inf\n", 5, "cannot parse"),
    ("[run]\nsuite = table2\n\n[table2]\nscales = 0.5 inf\n", 5,
     "cannot parse"),
    ("[run]\nsuite = continuum\n\n[continuum]\nq = -inf\n", 5,
     "cannot parse"),
    ("[run]\nsuite = continuum\n\n[continuum]\nlevel = nan\n", 5,
     "cannot parse"),
    ("[run]\nsuite = continuum\n\n[continuum]\nb_offsets = 0 inf\n", 5,
     "cannot parse"),
    # a [spec] field the kind does not read is named at its own line
    ("[run]\nsuite = classify\n\n[spec]\nkind = nosol\nq = -1\nlevel = 7\n", 7,
     "does not read level"),
    # so is a [continuum] level under a kind without one
    ("[run]\nsuite = continuum\n\n[continuum]\nkind = zero\nlevel = 7\n", 6,
     "does not read level"),
])
def test_parse_errors_are_located(tmp_path, body, line, fragment):
    path = write_config(tmp_path, body)
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    msg = str(err.value)
    assert f"{path}:{line}:" in msg
    assert fragment in msg


def test_parse_missing_run_section(tmp_path):
    path = write_config(tmp_path, "[ensemble]\nn_paths = 500\n")
    with pytest.raises(ConfigError, match=r"missing required section \[run\]"):
        parse_config(path)


def test_parse_classify_requires_spec_section(tmp_path):
    path = write_config(tmp_path, "[run]\nsuite = classify\n")
    with pytest.raises(ConfigError, match=r"requires a \[spec\] section"):
        parse_config(path)


@pytest.mark.parametrize("spec_body, fragment", [
    ("kind = constant\nq = -1.0\n", "needs a level"),
    ("kind = tilde\nq = -1.0\n", "drift offset b"),
    ("kind = scaled\nq = -1.0\nb = 0.5\n", "both a and b"),
    ("kind = nosol\nq = 0.5\n", "needs q < 0"),
    ("kind = vortex\nq = -1.0\n", "unknown kind"),
    ("kind = zero\nq = 1.5\n", "q < 1"),
    ("kind = nosol\nq = -inf\n", "cannot parse"),
    ("kind = tilde\nq = -1.0\nb = nan\n", "cannot parse"),
    ("kind = nosol\nq = -1.0\nc = inf\n", "cannot parse"),
    ("kind = nosol\nq = -1.0\na = 2.0\nlevel = 7.0\n", "does not read level"),
    ("kind = tilde\nq = -1.0\nb = 0.5\na = 2.0\n", "does not read a"),
    ("kind = constant\nq = -1.0\nlevel = 0.5\nb = 0.5\n", "does not read b"),
    ("kind = zero\nq = -1.0\nlevel = 0.5\n", "does not read level"),
])
def test_parse_spec_validation(tmp_path, spec_body, fragment):
    path = write_config(
        tmp_path, f"[run]\nsuite = classify\n\n[spec]\n{spec_body}")
    with pytest.raises(ConfigError, match=fragment):
        parse_config(path)


def test_parse_malformed_ini(tmp_path):
    path = write_config(tmp_path, "suite = table2\n")  # key before any header
    with pytest.raises(ConfigError, match="malformed config"):
        parse_config(path)


def test_parse_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(tmp_path / "absent.ini")


# ---------------------------------------------------------------------------
# Spec construction from a validated config
# ---------------------------------------------------------------------------


def classify_cfg(**kw) -> ExperimentConfig:
    base = dict(suite="classify", out=Path("unused"), spec_q=-1.0, T=1.0)
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("kw, kind", [
    (dict(spec_kind="zero"), "zero"),
    (dict(spec_kind="constant", spec_level=0.5), "constant"),
    (dict(spec_kind="reverting"), "reverting"),
    (dict(spec_kind="nosol"), "nosol"),
    (dict(spec_kind="alpha_arccos"), "alpha_arccos"),
    (dict(spec_kind="sigma_gamma"), "sigma_gamma"),
    (dict(spec_kind="tilde", spec_b=0.5), "tilde"),
    (dict(spec_kind="scaled", spec_a=0.9, spec_b=0.3), "scaled"),
])
def test_build_spec_all_kinds(kw, kind):
    spec = build_spec(classify_cfg(**kw))
    assert spec.kind == kind
    assert spec.c_scale == 1.0
    assert spec.T == 1.0


def test_build_spec_applies_scale():
    spec = build_spec(classify_cfg(spec_kind="nosol", spec_c=0.7))
    assert spec.kind == "nosol"
    assert spec.c_scale == 0.7


# ---------------------------------------------------------------------------
# Check logic on synthetic artifacts (no simulation)
# ---------------------------------------------------------------------------


def test_check_line_format():
    line = Check("demo", True, "all good", "because math").line()
    assert line == "[PASS] demo: all good  (because math)"
    assert Check("demo", False, "d", "a").line().startswith("[FAIL] ")


def test_check_figure_kq_flags_flat_curve():
    rows = [(0.1, -1.0, 2.0), (0.2, -1.5, 2.0)]
    by_name = {c.name: c for c in check_figure_kq(rows)}
    assert by_name["figure-kq positive"].passed
    assert not by_name["figure-kq increasing"].passed


def test_check_figure_kq_flags_degenerate_order():
    # k below -q/2 must trip the domination check even if increasing.
    rows = [(0.1, -1.0, 0.2), (0.2, -2.0, 0.3)]
    by_name = {c.name: c for c in check_figure_kq(rows)}
    assert not by_name["figure-kq dominates -q/2"].passed


def _t2_artifact(rows_by_seed):
    return {
        "q": -1.0,
        "scales": [0.5, 1.0, 1.5],
        "seeds": list(rows_by_seed),
        "verdicts": {str(s): row for s, row in rows_by_seed.items()},
    }


GOOD_ROW = {
    "nosol": ["BoundedSolution", "NoSolution", "NoSolution"],
    "alpha_arccos": ["BoundedSolution", "UnboundedSolution", "NoSolution"],
    "sigma_gamma": ["BoundedSolution", "UnboundedSolution",
                    "UnboundedSolution"],
}


def test_check_table2_passes_consistent_matrix():
    checks = check_table2(_t2_artifact({1: GOOD_ROW, 2: GOOD_ROW}))
    assert all(c.passed for c in checks)


def test_check_table2_flags_seed_disagreement():
    other = dict(GOOD_ROW)
    other["nosol"] = ["BoundedSolution", "UnboundedSolution", "NoSolution"]
    by_name = {c.name: c
               for c in check_table2(_t2_artifact({1: GOOD_ROW, 2: other}))}
    assert not by_name["table2 seed agreement"].passed
    assert by_name["table2 monotone in scale"].passed


def test_check_table2_flags_severity_reversal():
    bad = dict(GOOD_ROW)
    bad["sigma_gamma"] = ["NoSolution", "UnboundedSolution", "NoSolution"]
    by_name = {c.name: c for c in check_table2(_t2_artifact({1: bad}))}
    assert not by_name["table2 monotone in scale"].passed


def _cont_artifact(rows, tol=0.15):
    return {"kind": "constant", "level": 0.5, "q": -1.0, "n_paths": 1000,
            "seed": 1, "residual_tolerance": tol, "rows": rows}


def _cont_row(b, psi0, mean, se=1e-3, resid=1e-2):
    return {"b": b, "psi0": psi0, "psi0_closed": psi0,
            "martingale_mean": mean, "martingale_se": se,
            "residual_median": resid, "residual_p95": 2 * resid}


def test_check_continuum_passes_good_rows():
    rows = [_cont_row(0.0, 0.125, 1.0005), _cont_row(0.5, 0.29, 0.72)]
    assert all(c.passed for c in check_continuum(_cont_artifact(rows)))


def test_check_continuum_flags_false_martingale():
    # Unit mean at a positive offset means the supermartingale strictness
    # failed, even though the b = 0 row is fine.
    rows = [_cont_row(0.0, 0.125, 1.0005), _cont_row(0.5, 0.29, 1.0)]
    by_name = {c.name: c for c in check_continuum(_cont_artifact(rows))}
    assert not by_name["continuum martingale"].passed


def test_check_continuum_flags_martingale_break_at_zero():
    rows = [_cont_row(0.0, 0.125, 0.9), _cont_row(0.5, 0.29, 0.72)]
    by_name = {c.name: c for c in check_continuum(_cont_artifact(rows))}
    assert not by_name["continuum martingale"].passed


def test_check_continuum_flags_large_residual():
    rows = [_cont_row(0.0, 0.125, 1.0, resid=0.5)]
    by_name = {c.name: c for c in check_continuum(_cont_artifact(rows))}
    assert not by_name["continuum residual"].passed


def test_check_continuum_flags_closed_form_gap():
    row = _cont_row(0.0, 0.125, 1.0)
    row["psi0_closed"] = 0.13
    by_name = {c.name: c for c in check_continuum(_cont_artifact([row]))}
    assert not by_name["continuum closed form"].passed


# ---------------------------------------------------------------------------
# End-to-end: run + report
# ---------------------------------------------------------------------------

MANIFEST_KEYS = {
    "suite", "config_path", "config_sha256", "n_paths", "seed", "seeds",
    "workers", "versions", "wall_time_s", "timestamp_utc",
}


def run_cli(args):
    return main([str(a) for a in args])


def test_figure_kq_run_and_report(tmp_path, capsys):
    out = tmp_path / "nested" / "arts"  # parents are created on demand
    cfg = write_config(tmp_path, "[run]\nsuite = figure-kq\n")
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "[PASS] figure-kq positive" in stdout
    assert "3/3 checks passed" in stdout

    csv_lines = (out / "figure_kq.csv").read_text().splitlines()
    assert csv_lines[0] == "p,q,k_q"
    assert len(csv_lines) == 100  # header + p = 0.01 .. 0.99
    p, q, k = map(float, csv_lines[50].split(","))
    assert p == 0.5 and q == pytest.approx(-1.0) and \
        k == pytest.approx(kq_threshold(-1.0), rel=1e-15)

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["suite"] == "figure-kq"
    assert set(manifest["versions"]) == {"python", "numpy", "scipy", "qbsde"}

    assert run_cli(["report", out]) == 0
    report = capsys.readouterr().out
    assert "[PASS] figure-kq closed form" in report  # recomputed from the CSV
    assert "manifest: suite=figure-kq" in report


CONTINUUM_SMALL = """\
[run]
suite = continuum

[ensemble]
n_paths = 2000
seed = 20240817

[continuum]
kind = constant
level = 0.5
b_offsets = 0 0.5
"""


def test_continuum_small_run_report_and_determinism(tmp_path, capsys,
                                                    monkeypatch):
    cfg = write_config(tmp_path, CONTINUUM_SMALL)
    outs = [tmp_path / f"out{i}" for i in range(3)]

    assert run_cli(["run", "--config", cfg, "--out", outs[0]]) == 0
    assert run_cli(["run", "--config", cfg, "--out", outs[1]]) == 0
    monkeypatch.setenv("QBSDE_WORKERS", "2")
    assert run_cli(["run", "--config", cfg, "--out", outs[2]]) == 0
    monkeypatch.delenv("QBSDE_WORKERS")
    capsys.readouterr()

    blobs = [(o / "continuum.json").read_bytes() for o in outs]
    assert blobs[0] == blobs[1]  # rerun reproducibility
    assert blobs[0] == blobs[2]  # worker count cannot change results

    artifact = json.loads(blobs[0])
    assert [r["b"] for r in artifact["rows"]] == [0.0, 0.5]
    for row in artifact["rows"]:
        assert row["psi0"] == pytest.approx(row["psi0_closed"], abs=1e-12)

    assert run_cli(["report", outs[0]]) == 0
    assert "4/4 checks passed" in capsys.readouterr().out


def test_classify_small_run(tmp_path, capsys):
    cfg = write_config(tmp_path, """\
[run]
suite = classify

[ensemble]
n_paths = 1000

[spec]
kind = constant
q = -1.0
level = 0.5
""")
    out = tmp_path / "arts"
    assert run_cli(["run", "--config", cfg, "--out", out]) == 0
    assert "[PASS] classify verdict" in capsys.readouterr().out
    artifact = json.loads((out / "classify.json").read_text())
    assert artifact["verdict"] == "BoundedSolution"
    assert artifact["spec"]["kind"] == "constant"
    assert artifact["n_paths"] == 1000 and artifact["seed"] == BASE
    assert run_cli(["report", out]) == 0
    capsys.readouterr()


def test_table2_small_structure_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, """\
[run]
suite = table2

[ensemble]
n_paths = 1000
seeds = 777
""")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    # Verdict accuracy is not guaranteed at 1000 paths; the monotonicity
    # check may honestly fail, so only the exit-code domain is pinned.
    assert run_cli(["run", "--config", cfg, "--out", out1]) in (0, 1)
    assert run_cli(["run", "--config", cfg, "--out", out2]) in (0, 1)
    capsys.readouterr()

    blob1 = (out1 / "table2.json").read_bytes()
    assert blob1 == (out2 / "table2.json").read_bytes()

    artifact = json.loads(blob1)
    assert artifact["seeds"] == [777]
    row = artifact["verdicts"]["777"]
    assert set(row) == {"nosol", "alpha_arccos", "sigma_gamma"}
    allowed = {"BoundedSolution", "UnboundedSolution", "NoSolution"}
    for verdicts in row.values():
        assert len(verdicts) == 3
        assert set(verdicts) <= allowed


def test_run_overrides_reach_manifest(tmp_path, capsys):
    cfg = write_config(tmp_path, "[run]\nsuite = figure-kq\n")
    out = tmp_path / "arts"
    rc = run_cli(["run", "--config", cfg, "--out", out,
                  "--seed", 9, "--paths", 500])
    assert rc == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert manifest["seeds"] == [9, 10]  # derived replicates stay distinct
    assert manifest["n_paths"] == 500


@pytest.mark.parametrize("extra", [
    ["--suite", "warp"],
    ["--paths", "10"],
    ["--seed", "-3"],
])
def test_run_usage_errors_exit_2(tmp_path, capsys, extra):
    cfg = write_config(tmp_path, "[run]\nsuite = figure-kq\n")
    assert run_cli(["run", "--config", cfg] + extra) == 2
    assert "config error" in capsys.readouterr().err


def test_run_rejects_paths_below_the_divergence_floor(tmp_path, capsys):
    # 149 paths cannot fill the three 50-sample anchor blocks of a verdict.
    cfg = write_config(tmp_path, "[run]\nsuite = classify\n\n[spec]\n"
                                 "kind = sigma_gamma\nq = -1.0\n")
    out = tmp_path / "o"
    assert run_cli(["run", "--config", cfg, "--paths", 149, "--out", out]) == 2
    assert "--paths: need at least 150 paths" in capsys.readouterr().err
    assert not out.exists()  # rejected before any work


def test_run_config_error_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[run]\nsuite = figure-kq\nbogus = 1\n")
    assert run_cli(["run", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:3:" in err and "unknown key" in err


def test_suite_override_to_classify_needs_spec(tmp_path, capsys):
    cfg = write_config(tmp_path, "[run]\nsuite = figure-kq\n")
    assert run_cli(["run", "--config", cfg, "--suite", "classify"]) == 2
    assert "[spec]" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["many", "0", "-2"])
def test_invalid_workers_env_exit_2(tmp_path, capsys, monkeypatch, value):
    cfg = write_config(tmp_path, "[run]\nsuite = figure-kq\n")
    monkeypatch.setenv("QBSDE_WORKERS", value)
    assert run_cli(["run", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "QBSDE_WORKERS" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # rejected before any work


def test_report_empty_directory_exit_2(tmp_path, capsys):
    assert run_cli(["report", tmp_path]) == 2
    assert "no artifacts" in capsys.readouterr().err


def test_report_missing_directory_exit_2(tmp_path, capsys):
    assert run_cli(["report", tmp_path / "nope"]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_report_corrupt_artifact_exit_2(tmp_path, capsys):
    (tmp_path / "continuum.json").write_text("{not json")
    assert run_cli(["report", tmp_path]) == 2
    assert "unreadable artifacts" in capsys.readouterr().err


@pytest.mark.parametrize("name, artifact", [
    ("continuum.json", {"rows": [], "residual_tolerance": 0.1}),
    ("table2.json", {"seeds": [], "verdicts": {}}),
])
def test_report_empty_artifact_exit_2(tmp_path, capsys, name, artifact):
    (tmp_path / name).write_text(json.dumps(artifact))
    assert run_cli(["report", tmp_path]) == 2
    assert "unreadable artifacts" in capsys.readouterr().err


def test_report_flags_bad_stored_curve(tmp_path, capsys):
    # A stored curve that disagrees with the closed form must fail the
    # report's recomputation even though the file is well formed.
    (tmp_path / "figure_kq.csv").write_text(
        "p,q,k_q\n0.5,-1.0,0.1\n0.6,-1.5,0.2\n")
    assert run_cli(["report", tmp_path]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] figure-kq closed form" in out


def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
