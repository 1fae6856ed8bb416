"""Experiment runner and artifact surface.

Two commands::

    qbsde run --config CONFIG [--suite NAME] [--seed N] [--paths N] [--out DIR]
    qbsde report DIR

``run`` executes one experiment suite from a config file and writes its
artifacts (CSV/JSON) plus a ``manifest.json`` recording the seed, package
versions and wall time.  ``report`` re-reads an artifact directory and
prints one pass/fail line per check.  Exit codes: 0 all checks pass, 1 any
check failed, 2 config/usage error (with a line-located message for
malformed config files).

Config format: flat ``key = value`` lines under ``[section]`` headers (INI
syntax, parsed by :mod:`configparser`; no nesting, ``;``/``#`` comments).
Sections and keys::

    [run]
    suite = table2          ; figure-kq | table2 | continuum | classify
    out = artifacts         ; output directory (created if missing)

    [ensemble]              ; table2 / continuum / classify suites
    n_paths = 100000
    seed = 20240817         ; continuum / classify
    seeds = 20240817 555    ; table2: independent replicate seeds
    n_coarse = 64           ; coarse steps on the first half horizon
    T = 1.0

    [table2]                ; optional overrides
    q = -1.0
    scales = 0.5 1.0 1.5

    [continuum]             ; optional overrides
    q = -1.0
    b_offsets = 0 0.5 1
    kind = zero             ; zero | constant (bounded-exposure premiums)
    level = 0.5             ; constant premium level

    [spec]                  ; classify suite only
    kind = sigma_gamma      ; any catalog kind
    q = -1.0                ; ambient exposure power (and the construction's
                            ; own parameter for the kinds that take one)
    level = 0.5             ; constant kind only
    b = 0.5                 ; tilde offset / scaled parameter (those kinds only)
    a = 0.85                ; scaled parameter (scaled kind only)
    c = 1.0                 ; scale factor on the premium

Unknown sections or keys, and ``[spec]`` fields the kind does not read, are
rejected before any simulation starts.  The
``QBSDE_WORKERS`` environment variable (default 1) sets the process count
used to spread a suite's independent tasks (table2 seeds, continuum
offsets); results are byte-identical for any worker count because every
task derives its randomness from the config seeds alone.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import platform
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qbsde import __version__
from qbsde.bmo import classify, kq_curve
from qbsde.catalog import (
    KINDS,
    TRAITS,
    MprSpec,
    kq_threshold,
    mpr_constant,
    mpr_zero,
)
from qbsde.core import build_grid, sample_paths
from qbsde.heavytail import MIN_SAMPLES
from qbsde.solver import continuum, driver_residual, martingale_check

SUITES = ("figure-kq", "table2", "continuum", "classify")

#: Residual tolerance factor: the continuum triple's discrete residual is
#: dominated by the largest late grid step (the crossing usually lands
#: there), giving an O(sqrt(dt_max)) pathwise gap; 0.3 is calibrated with
#: >2x headroom over measured medians at the default grid.
RESIDUAL_TOL_FACTOR = 0.3


class ConfigError(Exception):
    """Invalid configuration; the message is already user-located."""


#: Sentinel marking a config key with no default (missing => ConfigError).
_REQUIRED = object()


# ---------------------------------------------------------------------------
# Config parsing and validation
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Validated experiment parameters; one suite per config."""

    suite: str
    out: Path
    n_paths: int = 100000
    seed: int = 20240817
    seeds: tuple[int, ...] = (20240817, 555)
    n_coarse: int = 64
    T: float = 1.0
    table2_q: float = -1.0
    scales: tuple[float, ...] = (0.5, 1.0, 1.5)
    continuum_q: float = -1.0
    b_offsets: tuple[float, ...] = (0.0, 0.5, 1.0)
    continuum_kind: str = "zero"
    continuum_level: float = 0.5
    spec_kind: str | None = None
    spec_q: float | None = None
    spec_level: float | None = None
    spec_a: float | None = None
    spec_b: float | None = None
    spec_c: float = 1.0
    config_path: Path | None = None
    config_sha256: str | None = None


def _key_line(text: str, section: str, key: str | None) -> int:
    """1-based line of ``key`` inside ``[section]`` (or the header line)."""
    current = None
    header_line = 1
    for i, line in enumerate(text.splitlines(), start=1):
        m = re.match(r"\s*\[(.+?)\]", line)
        if m:
            current = m.group(1)
            if current == section:
                header_line = i
            continue
        if current == section and key is not None:
            if re.match(rf"\s*{re.escape(key)}\s*[=:]", line):
                return i
    return header_line


@dataclass
class _Raw:
    """Raw config with location-aware typed getters."""

    parser: configparser.ConfigParser
    text: str
    path: Path

    def _err(self, section: str, key: str | None, msg: str) -> ConfigError:
        line = _key_line(self.text, section, key)
        where = f"[{section}] {key}" if key else f"[{section}]"
        return ConfigError(f"{self.path}:{line}: {where}: {msg}")

    def get(self, section: str, key: str, parse, check=None, default=_REQUIRED):
        if not self.parser.has_option(section, key):
            if default is not _REQUIRED:
                return default
            raise self._err(section, key, "required key is missing")
        raw = self.parser.get(section, key)
        try:
            value = parse(raw)
        except ValueError as exc:
            raise self._err(section, key, f"cannot parse {raw!r}: {exc}") from exc
        if check is not None:
            problem = check(value)
            if problem:
                raise self._err(section, key, problem)
        return value


def _int_list(raw: str) -> tuple[int, ...]:
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(int(p) for p in parts)


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("need a finite number")
    return value


def _float_list(raw: str) -> tuple[float, ...]:
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(_finite_float(p) for p in parts)


_SCHEMA: dict[str, frozenset[str]] = {
    "run": frozenset({"suite", "out"}),
    "ensemble": frozenset({"n_paths", "seed", "seeds", "n_coarse", "T"}),
    "table2": frozenset({"q", "scales"}),
    "continuum": frozenset({"q", "b_offsets", "kind", "level"}),
    "spec": frozenset({"kind", "q", "level", "a", "b", "c"}),
}


def parse_config(path: str | Path) -> ExperimentConfig:
    """Parse and fully validate a config file.

    Raises :class:`ConfigError` with a ``path:line`` located message on any
    syntax error, unknown section/key, unparsable value, or out-of-domain
    parameter.  Nothing is simulated before this function returns.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc

    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # keep key case (T vs t)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    raw = _Raw(parser=parser, text=text, path=path)

    for section in parser.sections():
        if section not in _SCHEMA:
            raise raw._err(section, None,
                           f"unknown section (known: {sorted(_SCHEMA)})")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise raw._err(section, key,
                               f"unknown key (known: {sorted(_SCHEMA[section])})")

    if not parser.has_section("run"):
        raise ConfigError(f"{path}:1: missing required section [run]")

    suite = raw.get("run", "suite", str,
                    lambda s: None if s in SUITES
                    else f"unknown suite (choose from {', '.join(SUITES)})")
    out = Path(raw.get("run", "out", str, default="artifacts"))

    cfg = ExperimentConfig(
        suite=suite, out=out, config_path=path,
        config_sha256=hashlib.sha256(text.encode()).hexdigest(),
    )

    if parser.has_section("ensemble"):
        cfg.n_paths = raw.get(
            "ensemble", "n_paths", int,
            lambda v: None if v >= MIN_SAMPLES
            else f"need at least {MIN_SAMPLES} paths",
            default=cfg.n_paths)
        cfg.seed = raw.get(
            "ensemble", "seed", int,
            lambda v: None if v >= 0 else "seed must be nonnegative",
            default=cfg.seed)
        cfg.seeds = raw.get(
            "ensemble", "seeds", _int_list,
            lambda v: None if all(s >= 0 for s in v) and len(set(v)) == len(v)
            else "seeds must be distinct and nonnegative",
            default=cfg.seeds)
        cfg.n_coarse = raw.get(
            "ensemble", "n_coarse", int,
            lambda v: None if v >= 2 else "need at least 2 coarse steps",
            default=cfg.n_coarse)
        cfg.T = raw.get(
            "ensemble", "T", _finite_float,
            lambda v: None if v > 0 else "horizon must be positive",
            default=cfg.T)

    if parser.has_section("table2"):
        cfg.table2_q = raw.get(
            "table2", "q", _finite_float,
            lambda v: None if v < 0 else "the verdict matrix needs q < 0",
            default=cfg.table2_q)
        cfg.scales = raw.get(
            "table2", "scales", _float_list,
            lambda v: None if all(s > 0 for s in v) else "scales must be positive",
            default=cfg.scales)

    if parser.has_section("continuum"):
        cfg.continuum_q = raw.get(
            "continuum", "q", _finite_float,
            lambda v: None if v < 1 else "need exposure power q < 1",
            default=cfg.continuum_q)
        cfg.b_offsets = raw.get(
            "continuum", "b_offsets", _float_list,
            lambda v: None if all(b >= 0 for b in v) and list(v) == sorted(v)
            else "offsets must be nonnegative and increasing",
            default=cfg.b_offsets)
        cfg.continuum_kind = raw.get(
            "continuum", "kind", str,
            lambda v: None if v in TRAITS and TRAITS[v].bounded
            else "continuum needs a pathwise-bounded-exposure kind "
                 "(zero or constant)",
            default=cfg.continuum_kind)
        cfg.continuum_level = raw.get(
            "continuum", "level", _finite_float, default=cfg.continuum_level)
        if ("level" not in TRAITS[cfg.continuum_kind].fields
                and parser.has_option("continuum", "level")):
            raise raw._err("continuum", "level",
                           f"kind {cfg.continuum_kind} does not read level")

    if suite == "classify":
        if not parser.has_section("spec"):
            raise ConfigError(
                f"{path}:1: suite classify requires a [spec] section")
        cfg.spec_kind = raw.get(
            "spec", "kind", str,
            lambda v: None if v in KINDS
            else f"unknown kind (choose from {', '.join(KINDS)})")
        cfg.spec_q = raw.get(
            "spec", "q", _finite_float,
            lambda v: None if v < 1 else "classification covers q < 1")
        cfg.spec_level = raw.get("spec", "level", _finite_float, default=None)
        cfg.spec_a = raw.get("spec", "a", _finite_float, default=None)
        cfg.spec_b = raw.get("spec", "b", _finite_float, default=None)
        cfg.spec_c = raw.get("spec", "c", _finite_float, default=cfg.spec_c)
        problem = TRAITS[cfg.spec_kind].field_problem(
            lambda name: getattr(cfg, f"spec_{name}"))
        if problem is not None:
            raise raw._err("spec", problem[0], f"kind {cfg.spec_kind} {problem[1]}")

    return cfg


def build_spec(cfg: ExperimentConfig) -> MprSpec:
    """Construct the catalog spec described by the [spec] section."""
    own = {name: float(getattr(cfg, f"spec_{name}"))
           for name in TRAITS[cfg.spec_kind].fields}
    spec = MprSpec(kind=cfg.spec_kind, T=cfg.T, **own)
    return spec.with_scale(cfg.spec_c) if cfg.spec_c != 1.0 else spec


# ---------------------------------------------------------------------------
# Checks, artifacts, manifest
# ---------------------------------------------------------------------------


@dataclass
class Check:
    """One executable acceptance check with its mathematical anchor."""

    name: str
    passed: bool
    detail: str
    anchor: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}  ({self.anchor})"


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _read_json(path: Path):
    return json.loads(path.read_text())


def _workers() -> int:
    raw = os.environ.get("QBSDE_WORKERS", "1").strip() or "1"
    try:
        w = int(raw)
    except ValueError as exc:
        raise ConfigError(
            f"QBSDE_WORKERS: cannot parse {raw!r} as an integer") from exc
    if w < 1:
        raise ConfigError(f"QBSDE_WORKERS: need a positive count, got {w}")
    return w


def _pmap(fn, tasks: list):
    """Map over independent tasks, in order, on QBSDE_WORKERS processes."""
    workers = _workers()
    if workers > 1 and len(tasks) > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(min(workers, len(tasks))) as pool:
            return pool.map(fn, tasks)
    return [fn(t) for t in tasks]


def write_manifest(out: Path, cfg: ExperimentConfig, wall_time: float) -> None:
    import scipy

    manifest = {
        "suite": cfg.suite,
        "config_path": str(cfg.config_path),
        "config_sha256": cfg.config_sha256,
        "n_paths": cfg.n_paths,
        "seed": cfg.seed,
        "seeds": list(cfg.seeds),
        "workers": _workers(),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "qbsde": __version__,
        },
        "wall_time_s": round(wall_time, 3),
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    _write_json(out / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_figure_kq(cfg: ExperimentConfig) -> list[Check]:
    p_grid = np.arange(1, 100) / 100.0
    rows = kq_curve(p_grid)
    lines = ["p,q,k_q"]
    lines += [f"{p:.17g},{q:.17g},{k:.17g}" for (p, q, k) in rows]
    (cfg.out / "figure_kq.csv").write_text("\n".join(lines) + "\n")
    return check_figure_kq(rows)


def check_figure_kq(rows: list[tuple[float, float, float]]) -> list[Check]:
    ks = [k for (_, _, k) in rows]
    positive = all(k > 0.0 for k in ks)
    increasing = all(b > a for a, b in zip(ks, ks[1:]))
    above = all(k > -q / 2.0 for (_, q, k) in rows)
    return [
        Check("figure-kq positive", positive,
              f"min k = {min(ks):.6g} over {len(ks)} grid points",
              "threshold curve (q - sqrt(q^2-q))^2 / 2 > 0"),
        Check("figure-kq increasing", increasing,
              f"k range [{min(ks):.6g}, {max(ks):.6g}] over p in (0,1)",
              "threshold curve is increasing in the utility power p"),
        Check("figure-kq dominates -q/2", above,
              "k_q > -q/2 at every grid point" if above
              else "k_q <= -q/2 somewhere",
              "sharp threshold sits strictly above the degeneracy order"),
    ]


_T2_KINDS = ("nosol", "alpha_arccos", "sigma_gamma")
#: Verdict severity for the monotone-in-scale check.
_T2_RANK = {"BoundedSolution": 0, "UnboundedSolution": 1, "NoSolution": 2}


def _table2_seed_row(args: tuple) -> dict[str, list[str]]:
    q, scales, n_paths, n_coarse, T, seed = args
    grid = build_grid(T, n_coarse)
    ens = sample_paths(grid, n_paths, seed=seed)
    row: dict[str, list[str]] = {}
    for kind in _T2_KINDS:
        spec = MprSpec(kind=kind, T=T, q=q)
        row[kind] = [classify(spec.with_scale(c), q, ens, with_exponent=False).verdict
                     for c in scales]
    return row


def suite_table2(cfg: ExperimentConfig) -> list[Check]:
    tasks = [
        (cfg.table2_q, cfg.scales, cfg.n_paths, cfg.n_coarse, cfg.T, seed)
        for seed in cfg.seeds
    ]
    rows = _pmap(_table2_seed_row, tasks)
    artifact = {
        "q": cfg.table2_q,
        "scales": list(cfg.scales),
        "seeds": list(cfg.seeds),
        "verdicts": {str(seed): row for seed, row in zip(cfg.seeds, rows)},
    }
    _write_json(cfg.out / "table2.json", artifact)
    return check_table2(artifact)


def check_table2(artifact: dict) -> list[Check]:
    seeds = [str(s) for s in artifact["seeds"]]
    verdicts = artifact["verdicts"]
    rows = [verdicts[s] for s in seeds]
    agree = all(r == rows[0] for r in rows[1:])
    monotone = all(
        all(_T2_RANK[a] <= _T2_RANK[b] for a, b in zip(vs, vs[1:]))
        for row in rows for vs in row.values()
    )
    cells = "; ".join(
        f"{kind}: {'/'.join(v[0] for v in rows[0][kind])}" for kind in _T2_KINDS
    )
    return [
        Check("table2 seed agreement", agree,
              f"{len(seeds)} seeds, matrix {cells}" if agree
              else "verdict matrices differ across seeds",
              "classification is a property of the construction, not the draw"),
        Check("table2 monotone in scale", monotone,
              "verdict severity nondecreasing in the premium scale" if monotone
              else "severity order violated along a scale row",
              "larger premium scale cannot improve solvability"),
    ]


def _continuum_row(args: tuple) -> dict:
    """One offset of the continuum suite; self-contained for process pools.

    Every offset rebuilds the ensemble from the same seed, so all rows see
    the same Brownian draw and the output is identical for any worker count.
    """
    spec, q, b, n_paths, n_coarse, T, seed = args
    grid = build_grid(T, n_coarse)
    ens = sample_paths(grid, n_paths, seed=seed)
    triple = continuum(spec, q, b, ens)
    xi = triple.extras["xi"]
    mart_mean, mart_se, _ = martingale_check(triple)
    resid = driver_residual(triple)
    return {
        "b": b,
        "psi0": triple.extras["psi0"],
        "psi0_closed": math.log(xi + b) / (1.0 - q),
        "martingale_mean": mart_mean,
        "martingale_se": mart_se,
        "residual_median": resid.median,
        "residual_p95": resid.p95,
    }


def suite_continuum(cfg: ExperimentConfig) -> list[Check]:
    grid = build_grid(cfg.T, cfg.n_coarse)
    q = cfg.continuum_q
    tol = RESIDUAL_TOL_FACTOR * math.sqrt(float(np.max(grid.dt)))
    # The constant premium where the kind reads a level, else the zero one.
    spec = (mpr_constant(cfg.continuum_level, cfg.T)
            if "level" in TRAITS[cfg.continuum_kind].fields else mpr_zero(cfg.T))
    tasks = [(spec, q, b, cfg.n_paths, cfg.n_coarse, cfg.T, cfg.seed)
             for b in cfg.b_offsets]
    rows = _pmap(_continuum_row, tasks)
    artifact = {
        "kind": cfg.continuum_kind,
        "level": spec.law.level(spec),
        "q": q,
        "n_paths": cfg.n_paths,
        "seed": cfg.seed,
        "residual_tolerance": tol,
        "rows": rows,
    }
    _write_json(cfg.out / "continuum.json", artifact)
    return check_continuum(artifact)


def check_continuum(artifact: dict) -> list[Check]:
    rows = artifact["rows"]
    tol = artifact["residual_tolerance"]
    psi = [r["psi0"] for r in rows]
    increasing = all(b > a for a, b in zip(psi, psi[1:]))
    closed = all(abs(r["psi0"] - r["psi0_closed"]) <= 1e-12 for r in rows)
    mart_ok = True
    mart_bits = []
    for r in rows:
        m, se, b = r["martingale_mean"], r["martingale_se"], r["b"]
        band = max(3.0 * se, 1e-12)
        is_mart = abs(m - 1.0) <= band
        mart_bits.append(f"b={b:g}: {m:.4f}±{se:.4f}")
        if b == 0.0:
            mart_ok &= is_mart
        else:
            mart_ok &= (m + band) < 1.0
    resid_ok = all(r["residual_median"] <= tol for r in rows)
    return [
        Check("continuum increasing", increasing,
              "psi0 = " + ", ".join(f"{v:.6f}" for v in psi),
              "log(E[xi] + b)/(1-q) grows strictly with the offset b"),
        Check("continuum closed form", closed,
              "initial value matches log(xi+b)/(1-q) to 1e-12",
              "the construction's initial value is explicit"),
        Check("continuum martingale", mart_ok,
              "; ".join(mart_bits),
              "unit-mean exactly at b=0; strictly below 1 for b>0"),
        Check("continuum residual", resid_ok,
              f"max median {max(r['residual_median'] for r in rows):.3e} "
              f"vs tolerance {tol:.3e}",
              "pathwise dynamics hold up to the grid discretization"),
    ]


def suite_classify(cfg: ExperimentConfig) -> list[Check]:
    grid = build_grid(cfg.T, cfg.n_coarse)
    ens = sample_paths(grid, cfg.n_paths, seed=cfg.seed)
    spec = build_spec(cfg)
    cls = classify(spec, cfg.spec_q, ens)
    artifact = cls.to_json_record()
    artifact["n_paths"] = cfg.n_paths
    artifact["seed"] = cfg.seed
    _write_json(cfg.out / "classify.json", artifact)
    return check_classify(artifact)


def check_classify(artifact: dict) -> list[Check]:
    verdict = artifact["verdict"]
    known = verdict in ("BoundedSolution", "UnboundedSolution", "NoSolution")
    side = artifact.get("threshold_side")
    detail = f"{artifact['spec']['kind']} at q={artifact['q']}: {verdict}"
    if side:
        detail += f" ({side})"
    return [
        Check("classify verdict", known, detail,
              "every pair lands in the three-way solvability split"),
    ]


_SUITE_RUNNERS = {
    "figure-kq": suite_figure_kq,
    "table2": suite_table2,
    "continuum": suite_continuum,
    "classify": suite_classify,
}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def run_command(args: argparse.Namespace) -> int:
    try:
        cfg = parse_config(args.config)
        if args.suite is not None:
            if args.suite not in SUITES:
                raise ConfigError(
                    f"--suite: unknown suite {args.suite!r} "
                    f"(choose from {', '.join(SUITES)})")
            cfg.suite = args.suite
            if cfg.suite == "classify" and cfg.spec_kind is None:
                raise ConfigError(
                    "--suite classify needs a [spec] section in the config")
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed: must be nonnegative")
            cfg.seed = args.seed
            cfg.seeds = tuple(args.seed + i for i in range(len(cfg.seeds)))
        if args.paths is not None:
            if args.paths < MIN_SAMPLES:
                raise ConfigError(f"--paths: need at least {MIN_SAMPLES} paths")
            cfg.n_paths = args.paths
        if args.out is not None:
            cfg.out = Path(args.out)
        _workers()  # validate the env var before any work
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    cfg.out.mkdir(parents=True, exist_ok=True)
    start = time.time()
    checks = _SUITE_RUNNERS[cfg.suite](cfg)
    write_manifest(cfg.out, cfg, time.time() - start)

    for check in checks:
        print(check.line())
    failed = [c for c in checks if not c.passed]
    print(f"{cfg.suite}: {len(checks) - len(failed)}/{len(checks)} checks "
          f"passed; artifacts in {cfg.out}")
    return 1 if failed else 0


def _read_nonempty(path: Path, key: str) -> dict:
    """Read an artifact whose ``key`` list the checks need non-empty."""
    artifact = _read_json(path)
    if not artifact[key]:
        raise ConfigError(f"{path}: {key!r} is empty")
    return artifact


_ARTIFACT_CHECKERS = {
    "table2.json": lambda p: check_table2(_read_nonempty(p, "seeds")),
    "continuum.json": lambda p: check_continuum(_read_nonempty(p, "rows")),
    "classify.json": lambda p: check_classify(_read_json(p)),
}


def _check_figure_csv(path: Path) -> list[Check]:
    rows = []
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "p,q,k_q":
        raise ConfigError(f"{path}:1: expected header 'p,q,k_q'")
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ConfigError(f"{path}:{i}: expected three comma-separated values")
        try:
            rows.append(tuple(float(x) for x in parts))
        except ValueError as exc:
            raise ConfigError(f"{path}:{i}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    checks = check_figure_kq(rows)
    closed_ok = all(
        abs(k - kq_threshold(q)) <= 1e-12 * max(1.0, abs(k))
        for (_, q, k) in rows
    )
    checks.append(Check(
        "figure-kq closed form", closed_ok,
        f"{len(rows)} stored points vs (q - sqrt(q^2-q))^2 / 2",
        "emitted curve reproduces the threshold formula pointwise"))
    return checks


def report_command(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"report error: {directory} is not a directory", file=sys.stderr)
        return 2
    checks: list[Check] = []
    try:
        csv_path = directory / "figure_kq.csv"
        if csv_path.exists():
            checks.extend(_check_figure_csv(csv_path))
        for name, checker in _ARTIFACT_CHECKERS.items():
            path = directory / name
            if path.exists():
                checks.extend(checker(path))
    except (ConfigError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"report error: unreadable artifacts: {exc}", file=sys.stderr)
        return 2
    if not checks:
        print(f"report error: no artifacts found in {directory}",
              file=sys.stderr)
        return 2
    for check in checks:
        print(check.line())
    manifest = directory / "manifest.json"
    if manifest.exists():
        meta = _read_json(manifest)
        print(f"manifest: suite={meta.get('suite')} "
              f"seed={meta.get('seed')} n_paths={meta.get('n_paths')} "
              f"qbsde={meta.get('versions', {}).get('qbsde')}")
    failed = [c for c in checks if not c.passed]
    print(f"report: {len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qbsde",
        description="Quadratic-BSDE Monte Carlo experiment suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment suite")
    run_p.add_argument("--config", required=True, help="config file path")
    run_p.add_argument("--suite", default=None,
                       help=f"override the config suite ({', '.join(SUITES)})")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the base seed")
    run_p.add_argument("--paths", type=int, default=None,
                       help="override the ensemble path count")
    run_p.add_argument("--out", default=None,
                       help="override the artifact directory")
    run_p.set_defaults(func=run_command)

    rep_p = sub.add_parser("report", help="summarize an artifact directory")
    rep_p.add_argument("directory", help="artifact directory to read")
    rep_p.set_defaults(func=report_command)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
