"""polysec benchmark: closed-loop CLI workloads with exact output checks.

    python3 bench/run.py --workload small --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

One process, one thread, one CLI command in flight: each instance's commands
go in-process through ``polysec.cli.main``, so interpreter start-up stays out
of the numbers.  Set-up (importing polysec, generating the inputs from the
seed, building prebuilt files) runs several times and its median is
``setup_s``.  The loop then issues instances until ``--seconds`` of command
time have passed; every output is checked exactly afterwards.  Times are
scaled to a reference machine speed by bench/speed.py; the record keeps the
unscaled ones.

With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer ones from bench/tracer.py, each instance running
traced and then untraced; ``trace.overhead_ratio`` is the throughput lost to
tracing.  The metric names and units come from BENCHMARK.json.

The last stdout line is the result object; the line before it is the full
record: environment, latency tail, failure ratio including set-up commands,
and the sha256 of the CLI stdout over set-up and a fixed window of instances.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import workloads
from speed import SpeedProbe
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "compose", "jsonio", "polygon", "randgen", "slack")
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def import_polysec():
    """Import polysec afresh, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "polysec" or m.startswith("polysec.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"polysec.{m}") for m in MODULES})


def environment() -> dict:
    loc = sum(1 for path in sorted((SRC / "polysec").glob("*.py"))
              for line in path.read_text().splitlines() if line.strip())
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(), "src_polysec_loc": loc}


def git_commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Run(NamedTuple):
    seconds: float  # wall time of the instance's commands
    scaled: float  # the same at the reference machine speed
    commands: list


def run_instance(ps, wl, i: int, probe=None) -> Run:
    mark = probe.mark() if probe else 0
    commands = [c for p in wl.instance(i) for c in workloads.run_pipeline(ps.cli.main, p)]
    seconds = sum(c.seconds for c in commands)
    return Run(seconds, seconds * probe.scale(mark) if probe else seconds, commands)


def run_loop(ps, wl, seconds: float, tracer=None, probe=None) -> tuple:
    """Issue instances back to back until their commands have taken
    ``seconds``, and at least the workload's window of them.

    With a tracer each instance runs traced and then once more untraced, so
    that changing load on the machine hits both sides of the overhead alike.
    Returns the runs and the untraced replays.
    """
    runs, replays, timed, i = [], [], 0.0, 0
    while timed < seconds or i < wl.window:
        if tracer is None:
            runs.append(run_instance(ps, wl, i, probe))
        else:
            tracer.install()
            tracer.instance = i
            try:
                runs.append(run_instance(ps, wl, i))
            finally:
                tracer.remove()
            replays.append(run_instance(ps, wl, i))
        timed += runs[-1].seconds
        i += 1
    return runs, replays


def latency_tail(latencies: list):
    """The highest listed percentile with at least 10 samples beyond it."""
    n = len(latencies)
    if n < 20:
        return None
    p = max(q for q in TAIL_PERCENTILES if n * (100 - q) / 100 >= 10)
    rank = -int(-p * n // 100)  # nearest rank, ceil(p n / 100)
    return {"value": sorted(latencies)[rank - 1] * 1000, "unit": "ms", "percentile": p,
            "samples": n}


def throughput(runs: list, scaled: bool = False) -> float:
    """Checked instances per second of command time."""
    ok = sum(1 for run in runs if not any(c.error for c in run.commands))
    return ok / sum(run.scaled if scaled else run.seconds for run in runs)


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes) -> tuple:
    """Set up, run and check one workload; returns (record, computed metrics)."""
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        setup_runs, setup_scaled = [], []
        for _ in range(sizes.setup_repeats):
            with SpeedProbe() as probe:
                start = time.perf_counter()
                ps = import_polysec()
                wl = workloads.setup(ps, workload, seed, sizes, workdir)
                setup_runs.append(time.perf_counter() - start)
            setup_scaled.append(setup_runs[-1] * probe.scale())
        if trace:
            tracer = Tracer()
            runs, replays = run_loop(ps, wl, seconds, tracer)
        else:
            with SpeedProbe() as probe:
                runs, replays = run_loop(ps, wl, seconds, probe=probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checker = workloads.Checker(ps)
    loop_commands = [c for run in runs + replays for c in run.commands]
    for c in wl.setup_commands + loop_commands:
        checker.check(c)
    failed = [c for c in loop_commands if c.error]
    setup_failed = [c for c in wl.setup_commands if c.error]
    attempted = len(loop_commands) + len(wl.setup_commands)
    window = wl.setup_commands + [c for run in runs[:wl.window] for c in run.commands]
    digest = hashlib.sha256("".join(c.stdout for c in window).encode()).hexdigest()
    window_bits = [b for c in window for b in c.ext_bits + c.factor_bits]
    latencies = [run.scaled for run in runs]

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "instances": len(runs),
        "commands": {"attempted": len(loop_commands), "failed": len(failed)},
        "fail_ratio": {"value": (len(failed) + len(setup_failed)) / attempted,
                       "attempted": attempted, "failed": len(failed) + len(setup_failed),
                       "setup_commands": len(wl.setup_commands),
                       "setup_failed": [c.error for c in setup_failed]},
        "latency_tail_ms": latency_tail(latencies),
        "stdout_sha256": {"digest": digest, "instances": min(wl.window, len(runs)),
                          "setup_commands": len(wl.setup_commands)},
        "out_bits_max": max(window_bits, default=0),
        "setup_runs_s": setup_runs,
        "unscaled": {"setup_s": statistics.median(setup_runs),
                     "instances_per_s": throughput(runs),
                     "latency_p50_ms": statistics.median(run.seconds for run in runs) * 1000},
        "failures": [c.error for c in failed[:5]],
        # a set-up command that refused is a failed command; one that
        # answered wrongly is also an incorrect result
        "correct": not failed and not any(c.rc == 0 for c in setup_failed),
    }
    if trace:
        metrics = tracer.layer_metrics(len(runs))
        traced = [c for run in runs for c in run.commands]
        metrics.update({
            "bits.extension_max": (max((b for c in traced for b in c.ext_bits), default=0),
                                   "bits"),
            "bits.factor_max": (max((b for c in traced for b in c.factor_bits), default=0),
                                "bits"),
            "trace.instances_per_s": (throughput(runs), "1/s"),
            "trace.untraced_instances_per_s": (throughput(replays), "1/s"),
            "trace.overhead_ratio": (1 - throughput(runs) / throughput(replays), "ratio"),
        })
    else:
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "instances_per_s": (throughput(runs, scaled=True), "1/s"),
            "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "out_bits_p90": (statistics.quantiles(window_bits, n=10)[8]
                             if len(window_bits) > 1 else 0, "bits"),
        }
    return record, metrics


def result_line(record: dict, metrics: dict, specs: list) -> dict:
    """The result object: the metrics BENCHMARK.json lists, with their units."""
    out = {}
    for spec in specs:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']} is measured in {unit}, not {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return {"correct": record["correct"], "attempted": record["commands"]["attempted"],
            "failed": record["commands"]["failed"], "metrics": out}


def smoke(config: dict) -> int:
    """Every workload at tiny sizes, untraced and traced; checks the result
    schema, and zero failed checks on small and ngon-mid.  No timing gate."""
    problems = []
    for spec in config["workloads"]:
        for trace in (0, 1):
            record, metrics = measure(spec["name"], 1, 0.05, bool(trace), workloads.SMOKE)
            result = result_line(record, metrics, config["per_layer" if trace else "end_to_end"])
            label = f"{spec['name']} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result["attempted"] < 1 or record["instances"] < 1:
                problems.append(f"{label}: nothing attempted")
            for name, metric in result["metrics"].items():
                if not isinstance(metric["value"], (int, float)):
                    problems.append(f"{label}: {name} = {metric['value']!r}")
            if spec["name"] != "verify-large" and (result["failed"] or not result["correct"]):
                problems.append(f"{label}: failed checks {record['failures']}")
            print(f"{label}: {result['attempted']} commands, {result['failed']} failed")
    for problem in problems:
        print("SMOKE FAIL", problem)
    print("smoke", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and check the output schema")
    args = parser.parse_args(argv)
    if not (SRC / "polysec" / "__init__.py").is_file():
        print(f"no polysec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.smoke:
        return smoke(config)
    if args.workload not in {w["name"] for w in config["workloads"]}:
        parser.error(f"--workload must be one of {[w['name'] for w in config['workloads']]}")
    record, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                              workloads.FULL)
    print(json.dumps(record))
    print(json.dumps(result_line(record, metrics,
                                 config["per_layer" if args.trace else "end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
