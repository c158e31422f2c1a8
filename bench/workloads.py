"""The three workloads: seeded set-up, the command sequence of one instance,
and the exact checks on every CLI output.

An instance is a fixed sequence of CLI commands on one input; the loop in
run.py issues them in-process, one at a time, through ``polysec.cli.main``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional


@dataclass(frozen=True)
class Sizes:
    small_pool: int  # distinct 6- and 7-gons, cycled by the loop
    small_window: int  # first instances, always run, that the stdout digest and bits cover
    ngon_n: int
    ngon_pool: int
    ngon_window: int
    large_n: int
    large_files: int
    setup_repeats: int


FULL = Sizes(small_pool=512, small_window=64, ngon_n=28, ngon_pool=16, ngon_window=4,
             large_n=140, large_files=2, setup_repeats=3)
SMOKE = Sizes(small_pool=8, small_window=4, ngon_n=14, ngon_pool=2, ngon_window=1,
              large_n=21, large_files=1, setup_repeats=1)


@dataclass(frozen=True)
class Pipeline:
    """One input polygon through some of extend, verify and factorize."""

    key: str  # names the input and mode; equal keys give equal outputs
    polygon: object  # the validated polysec Polygon
    poly_path: str
    ext_path: str
    mode: str  # "auto", "join" or "3d"
    bound: int  # proven vertex bound of the extension
    dim: int
    steps: tuple
    prebuilt: Optional[bytes] = None  # extension file written during set-up

    def argv(self, step: str) -> list:
        if step == "extend":
            mode = [] if self.mode == "auto" else ["--mode", self.mode]
            return ["extend", self.poly_path, *mode, "--out", self.ext_path]
        if step == "verify":
            return ["verify", self.ext_path]
        return ["factorize", self.poly_path, self.ext_path]


@dataclass
class Command:
    pipeline: Pipeline
    step: str
    rc: object
    stdout: str
    stderr: str
    seconds: float
    ext: Optional[bytes]  # the extension file as this command left it
    # set by Checker.check: the failed check, and the bit lengths (larger of
    # numerator and denominator) of the rationals in the extension file the
    # command wrote (or, for a file built in set-up, read) and in the factors
    error: Optional[str] = None
    ext_bits: list = field(default_factory=list)
    factor_bits: list = field(default_factory=list)


def call_cli(main, argv: list) -> tuple:
    """Run the CLI in-process; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception:  # a traceback is a failed command, not a benchmark crash
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), seconds


def run_pipeline(main, p: Pipeline) -> list:
    commands = []
    ext = p.prebuilt
    for step in p.steps:
        rc, out, err, seconds = call_cli(main, p.argv(step))
        if step == "extend":
            ext = _read(p.ext_path) if rc == 0 else None
        commands.append(Command(p, step, rc, out, err, seconds, ext))
    return commands


def _read(path: str) -> Optional[bytes]:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


class Workload:
    """Inputs of one workload, made from the seed; instance(i) cycles them."""

    def __init__(self, window: int, pipelines: list, setup_commands: list):
        self.window = window
        self._pipelines = pipelines  # one tuple of pipelines per distinct instance
        self.setup_commands = setup_commands

    def instance(self, i: int) -> tuple:
        return self._pipelines[i % len(self._pipelines)]


def _polygon_file(ps, workdir: str, key: str, polygon) -> str:
    path = os.path.join(workdir, key + ".json")
    _write(path, ps.jsonio.dumps(ps.jsonio.polygon_to_obj(polygon)))
    return path


def _small(ps, rng, sizes: Sizes, workdir: str) -> Workload:
    # one instance in four is a hexagon, half of those 5-vertex witnesses
    ext_path = os.path.join(workdir, "small.ext.json")
    steps = ("extend", "verify", "factorize")
    pipelines = []
    for i in range(sizes.small_pool):
        if i % 4:
            polygon, bound = ps.randgen.random_convex_polygon(rng, 7), 6
        elif i % 8 == 0:
            alpha, beta, gamma, x, y = ps.randgen.random_hexagon_params(rng)
            polygon = ps.polygon.validate(
                [(0, alpha), (beta * x, beta * y), (gamma, 0), (1, 0), (x, y), (0, 1)])
            bound = 5
        else:
            polygon, bound = ps.randgen.random_convex_polygon(rng, 6), 6
        key = f"small-{i}"
        path = _polygon_file(ps, workdir, key, polygon)
        pipelines.append((Pipeline(key, polygon, path, ext_path, "auto", bound, 3, steps),))
    return Workload(sizes.small_window, pipelines, [])


def _ngon_mid(ps, rng, sizes: Sizes, workdir: str) -> Workload:
    n = sizes.ngon_n
    steps = ("extend", "verify", "factorize")
    pipelines = []
    for i in range(sizes.ngon_pool):
        polygon = ps.randgen.random_convex_polygon(rng, n)
        key = f"ngon-{i}"
        path = _polygon_file(ps, workdir, key, polygon)
        pipelines.append((
            Pipeline(key + "-join", polygon, path, os.path.join(workdir, "join.ext.json"),
                     "join", -((6 * n) // -7), 2 + n // 7, steps),
            Pipeline(key + "-3d", polygon, path, os.path.join(workdir, "3d.ext.json"),
                     "3d", n - 1, 3, steps),
        ))
    return Workload(sizes.ngon_window, pipelines, [])


def _verify_large(ps, rng, sizes: Sizes, workdir: str) -> Workload:
    """Join extensions of large n-gons, asked of the CLI first; an instance
    verifies each of them once.

    When the CLI refuses to build or factorize one, the refusal is kept as a
    failed set-up command and the library builds the file instead.
    """
    n = sizes.large_n
    verifies, setup_commands = [], []
    for i in range(sizes.large_files):
        polygon = ps.randgen.random_convex_polygon(rng, n)
        key = f"large-{i}"
        path = _polygon_file(ps, workdir, key, polygon)
        ext_path = os.path.join(workdir, key + ".ext.json")
        ask = Pipeline(key, polygon, path, ext_path, "join", -((6 * n) // -7), 2 + n // 7,
                       ("extend",))
        commands = run_pipeline(ps.cli.main, ask)
        prebuilt = commands[0].ext
        if prebuilt is None:
            ext = ps.compose.ngon_extension(polygon)
            _write(ext_path, ps.jsonio.dumps(ps.jsonio.sectioned_to_obj(ext)))
            prebuilt = _read(ext_path)
        ask = replace(ask, steps=("factorize",), prebuilt=prebuilt)
        setup_commands += commands + run_pipeline(ps.cli.main, ask)
        verifies.append(replace(ask, steps=("verify",)))
    return Workload(1, [tuple(verifies)], setup_commands)


WORKLOADS = {"small": _small, "ngon-mid": _ngon_mid, "verify-large": _verify_large}


def setup(ps, name: str, seed: int, sizes: Sizes, workdir: str) -> Workload:
    return WORKLOADS[name](ps, random.Random(f"{name}/{seed}"), sizes, workdir)


def _bit_lengths(texts) -> list:
    """Larger of numerator and denominator bit length, per rational string."""
    out = []
    for text in texts:
        value = Fraction(text)
        out.append(max(abs(value.numerator).bit_length(), value.denominator.bit_length()))
    return out


class Checker:
    """Exact checks of CLI outputs; remembers the verdict on outputs it has
    already seen, so repeated inputs are not re-checked."""

    def __init__(self, ps):
        self.ps = ps
        self._seen: dict = {}

    def check(self, c: Command) -> None:
        key = (c.pipeline.key, c.step, c.rc, c.stdout, c.ext)
        if key not in self._seen:
            try:
                self._seen[key] = (None, *getattr(self, "_" + c.step)(c))
            except Exception as exc:  # any malformed output is a failed check
                self._seen[key] = (f"{c.step} {c.pipeline.key}: {exc!r}", [], [])
        c.error, c.ext_bits, c.factor_bits = self._seen[key]

    def _require(self, ok: bool, what: str) -> None:
        if not ok:
            raise AssertionError(what)

    def _exited_zero(self, c: Command) -> None:
        self._require(c.rc == 0, f"exit {c.rc}: {c.stderr.strip()[-300:]}")

    def _extension_bits(self, c: Command) -> list:
        p = c.pipeline
        ext = json.loads(c.ext)
        self._require(ext["dim"] == p.dim, f"dimension {ext['dim']} != {p.dim}")
        self._require(len(ext["vertices"]) <= p.bound,
                      f"{len(ext['vertices'])} vertices > bound {p.bound}")
        self._require(ext["certified"] is True, "extension not flagged certified")
        claimed = self.ps.polygon.validate(
            [(Fraction(x), Fraction(y)) for x, y in ext["claimed"]["vertices"]])
        self._require(claimed == p.polygon, "claimed section differs from the input polygon")
        return _bit_lengths(s for v in ext["vertices"] + ext["claimed"]["vertices"] for s in v)

    def _extend(self, c: Command) -> tuple:
        self._exited_zero(c)
        p = c.pipeline
        summary = json.loads(c.stdout)
        self._require(summary["vertex_bound"] == p.bound,
                      f"vertex bound {summary['vertex_bound']} != {p.bound}")
        self._require(summary["dim"] == p.dim, f"dimension {summary['dim']} != {p.dim}")
        self._require(summary["extreme_points"] <= summary["vertices"] <= p.bound,
                      f"vertex counts {summary} exceed the bound")
        return self._extension_bits(c), []

    def _verify(self, c: Command) -> tuple:
        self._exited_zero(c)
        self._require(c.stdout == "PASS\n", f"verify printed {c.stdout!r}")
        return (self._extension_bits(c) if c.pipeline.prebuilt else []), []

    def _factorize(self, c: Command) -> tuple:
        self._exited_zero(c)
        p, slack = c.pipeline, self.ps.slack
        obj = json.loads(c.stdout)
        self._require(obj["extension_sha256"] == hashlib.sha256(c.ext).hexdigest(),
                      "factorization names another extension file")
        r_rows = tuple(tuple(Fraction(v) for v in row) for row in obj["R"]["entries"])
        c_rows = tuple(tuple(Fraction(v) for v in row) for row in obj["C"]["entries"])
        r = obj["r"]
        self._require(r <= p.bound, f"inner dimension {r} > bound {p.bound}")
        self._require(len(c_rows) == r and all(len(row) == r for row in r_rows),
                      f"factor shapes disagree with r = {r}")
        fact = slack.SlackFactorization(r_factor=r_rows, c_factor=c_rows)
        self._require(slack.verify_factorization(slack.slack_matrix(p.polygon), fact),
                      "R * C does not reproduce the slack matrix")
        entries = obj["R"]["entries"] + obj["C"]["entries"]
        return [], _bit_lengths(s for row in entries for s in row)
