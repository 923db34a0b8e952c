#!/usr/bin/env python3
"""Benchmark of the arcperp certifier: time to an exact verdict.

Run from the root of a checkout that holds ``src/arcperp``:

    python3 perfbench/run.py --workload verify-kernel --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the run repeats a cycle for about ``--seconds`` seconds:
a fresh interpreter imports ``arcperp.cli`` (set-up time), the CLI runs the
workload as a fresh child process, and the speed probe (``probe.py``) runs.
The loop is closed: one client, one child at a time.  Every verdict is
checked against the closed form ``(n+1)^(h+1)`` and against a reference
output recorded at the commit that introduced the benchmark.  Times are
scaled by the probes run just before and after them, to the probe's
reference time, so that a shared host slowing down for a while does not
read as a change of arcperp; the end-to-end metrics are medians over the
cycles, and the unscaled medians are printed too.

With ``--trace 1`` the CLI runs three times untraced and three times under
the outside tracer (``tracer.py``), and the per-layer metrics are read from
the traces.  The trace of the median traced run is written to
``perfbench/out/<workload>-trace.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat the metrics for a reader.  The exit code is 0 when a result was
printed, whether or not every verdict was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = BENCH / "out"

# A run must end within 180 s; children are killed when this budget is spent.
RUN_LIMIT_S = 170.0

# The speed probe, and its wall time on the machine the benchmark was defined
# on.  Times are reported as if the host ran at that speed; see probe.py.
PROBE = BENCH / "probe.py"
PROBE_REF_S = 0.25

CHECK_NAMES = (
    "hankel_minors_annihilated_by_generators",
    "hankel_minors_double_derivative_vanishes",
    "kernel_basis_pointwise_certificates",
    "kernel_equals_hankel_minor_span",
    "restriction_matches_truncated_minors",
    "triangular_scaled_dimension_chain",
    "scaled_maximal_minors_differentially_homogeneous",
    "dimension_series_matches_closed_form",
    "randomized_property_samples",
)
CHAIN_KEYS = ("triangular", "scaled", "scaled_augmented")


@dataclass(frozen=True)
class Workload:
    """One fixed CLI invocation; ``seeded`` ones also get ``--seed``."""

    command: str
    n: int
    h: int
    extra: tuple[str, ...] = ()
    seeded: bool = False

    def argv(self, seed: int) -> list[str]:
        h_flag = "--h-max" if self.command == "series" else "--h"
        args = [self.command, "--n", str(self.n), h_flag, str(self.h), *self.extra, "--json"]
        return args + ["--seed", str(seed)] if self.seeded else args


# Each workload lets one layer do most of the work; see README.md.
WORKLOADS = {
    "verify-kernel": Workload("verify", 2, 2, ("--no-timings",), seeded=True),
    "chain-contain": Workload("dims-chain", 2, 3),
    "series-minors": Workload("series", 1, 7),
}


# -- the correctness gate ------------------------------------------------------


def reference_for(workload: str, seed: int):
    """The recorded output for ``workload``, with every ``seed`` field set to ``seed``."""
    with open(BENCH / "reference" / f"{workload}.json", encoding="utf-8") as fh:
        return _with_seed(json.load(fh), seed)


def _with_seed(value, seed: int):
    if isinstance(value, dict):
        return {k: seed if k == "seed" else _with_seed(v, seed) for k, v in value.items()}
    if isinstance(value, list):
        return [_with_seed(v, seed) for v in value]
    return value


def reference_mismatches(ref, got, path: str = "$") -> list[str]:
    """Where ``got`` disagrees with ``ref``.

    Keys that ``ref`` lacks are ignored, so fields added to the reports later
    (such as a ``stats`` block) do not count.  Lists of named entries (the
    checks of a verify report) are matched by name on the same terms.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in ref.items():
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(reference_mismatches(value, got[key], f"{path}.{key}"))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list):
            return [f"{path}: expected a list"]
        if ref and all(isinstance(r, dict) and "name" in r for r in ref):
            by_name = {g.get("name"): g for g in got if isinstance(g, dict)}
            out = []
            for r in ref:
                where = f"{path}[{r['name']}]"
                if r["name"] in by_name:
                    out.extend(reference_mismatches(r, by_name[r["name"]], where))
                else:
                    out.append(f"{where}: missing")
            return out
        if len(ref) != len(got):
            return [f"{path}: {len(got)} entries, expected {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out.extend(reference_mismatches(r, g, f"{path}[{i}]"))
        return out
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r}, expected {ref!r}"]
    return []


def closed_form_mismatches(workload: Workload, report) -> list[str]:
    """Dimensions that differ from (n+1)^(h+1), computed here, not read from the report."""
    n, h = workload.n, workload.h
    closed = (n + 1) ** (h + 1)
    found: dict[str, object] = {}
    expected: dict[str, int] = {}
    if workload.command == "series":
        for k in range(h + 1):
            expected[f"h={k}"] = (n + 1) ** (k + 1)
        for row in report:
            found[f"h={row['h']}"] = row["dimension"]
    elif workload.command == "dims-chain":
        for key in CHAIN_KEYS:
            expected[key] = closed
            found[key] = report.get(key)
    else:
        checks = {c["name"]: c.get("dimensions", {}) for c in report["checks"]}
        for k in range(h + 1):
            expected[f"series h={k}"] = (n + 1) ** (k + 1)
            found[f"series h={k}"] = checks.get("dimension_series_matches_closed_form", {}).get(str(k))
        for key in CHAIN_KEYS:
            expected[f"chain {key}"] = closed
            found[f"chain {key}"] = checks.get("triangular_scaled_dimension_chain", {}).get(key)
    out = [f"{key}: {found.get(key)!r}, closed form {value}"
           for key, value in expected.items() if found.get(key) != value]
    out.extend(f"{key}: unexpected" for key in found if key not in expected)
    return out


def gate(workload: str, exit_code: int, stdout: str, seed: int) -> list[str]:
    """Everything wrong with one CLI run; an empty list means the verdict is right."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + ["output is not JSON"]
    problems += reference_mismatches(reference_for(workload, seed), report)
    try:
        problems += closed_form_mismatches(WORKLOADS[workload], report)
    except (AttributeError, KeyError, TypeError):
        problems.append("report does not have the expected shape")
    return problems


# -- child processes -----------------------------------------------------------


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    # A fixed hash seed keeps set and dict iteration orders, and so the
    # per-layer counts, identical from run to run.
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def run_child(cmd: list[str], deadline: float) -> ChildRun:
    """Run ``cmd`` to completion, killing it at ``deadline`` (a perf_counter time).

    Wall time runs from spawning to exit; CPU time and peak RSS come from
    ``wait4`` on this one child.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    # Popen.kill and Popen.wait would reap the child and lose its rusage, so
    # it is signalled and reaped through the pid, which stays ours until wait4.
    try:
        out, err = _drain(proc, deadline)
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        exit_code=proc.returncode,
        stdout=out,
        stderr=err,
    )


def _drain(proc: subprocess.Popen, deadline: float) -> tuple[str, str]:
    """Read the child's stdout and stderr to EOF; kill it at ``deadline``."""
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        timeout: float | None = 0.0
        while sel.get_map():
            if timeout is not None:
                timeout = deadline - time.perf_counter()
                if timeout <= 0:
                    os.kill(proc.pid, signal.SIGKILL)
                    timeout = None
            for key, _ in sel.select(timeout):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    texts = [b"".join(chunks[f.fileno()]).decode("utf-8", "replace") for f in (proc.stdout, proc.stderr)]
    proc.stdout.close()
    proc.stderr.close()
    return texts[0], texts[1]


def cli_command(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "arcperp.cli", *args]


def _probe(deadline: float) -> ChildRun:
    run = run_child([sys.executable, str(PROBE)], deadline)
    if run.exit_code != 0:
        raise RuntimeError(f"the speed probe failed: {run.stderr.strip()}")
    return run


def _import_cli(deadline: float) -> ChildRun:
    run = run_child([sys.executable, "-c", "import arcperp.cli"], deadline)
    if run.exit_code != 0:
        raise RuntimeError(f"import arcperp.cli failed: {run.stderr.strip()}")
    return run


def at_reference_speed(values: list[float], probes: list[float]) -> float:
    """Median of ``values[k]`` scaled to the reference probe time.

    ``probes[k]`` and ``probes[k + 1]`` were measured just before and just
    after ``values[k]``; their mean is the host's speed at that moment.
    """
    return statistics.median(
        v * PROBE_REF_S / ((before + after) / 2)
        for v, before, after in zip(values, probes, probes[1:])
    )


# -- untraced run: end-to-end metrics -------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Cycles of (import the CLI, run the workload, run the probe), back to back."""
    argv = WORKLOADS[workload].argv(seed)
    probes = [_probe(deadline)]
    setups: list[ChildRun] = []
    runs: list[ChildRun] = []
    failed = 0
    spent = probes[0].wall_s
    cycles: list[float] = []
    while True:
        setups.append(_import_cli(deadline))
        run = run_child(cli_command(argv), deadline)
        runs.append(run)
        probes.append(_probe(deadline))
        problems = gate(workload, run.exit_code, run.stdout, seed)
        if problems:
            failed += 1
            _report_failure(workload, run, problems)
        cycles.append(setups[-1].wall_s + run.wall_s + probes[-1].wall_s)
        spent += cycles[-1]
        typical = statistics.median(cycles)
        # Start another cycle only if it should end inside the measured window.
        if spent + typical > seconds or time.perf_counter() + 2 * typical > deadline:
            break
    attempted = len(runs)
    walls = [r.wall_s for r in runs]
    probe_walls = [p.wall_s for p in probes]
    probe_cpus = [p.cpu_s for p in probes]
    notes = {
        "samples": attempted,
        "fail_ratio": failed / attempted,
        "verdict_raw_s": statistics.median(walls),
        "verdict_raw_s_min": min(walls),
        "verdict_raw_s_max": max(walls),
        "cpu_raw_s": statistics.median(r.cpu_s for r in runs),
        "setup_raw_s": statistics.median(s.wall_s for s in setups),
        "probe_s": statistics.median(probe_walls),
    }
    # A percentile is reported only with at least ten samples beyond it.
    if attempted >= 100:
        notes["verdict_raw_s_p90"] = statistics.quantiles(walls, n=10)[-1]
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "verdict_s": (at_reference_speed(walls, probe_walls), "s"),
            "cpu_s": (at_reference_speed([r.cpu_s for r in runs], probe_cpus), "s"),
            "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MiB"),
            "setup_s": (at_reference_speed([s.wall_s for s in setups], probe_walls), "s"),
            "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        },
        "notes": notes,
    }


# -- traced run: per-layer metrics ---------------------------------------------

# (metric, function, field, unit).  "self_s" and "total_s" are read from the
# nanosecond totals; a pair of fields is a ratio of two counters.
FUNCTION_METRICS = (
    ("ring.Polynomial.mul.calls", "ring.Polynomial.mul", "calls", "count"),
    ("ring.Polynomial.new.calls", "ring.Polynomial.new", "calls", "count"),
    ("ring.Polynomial.substitute.self_s", "ring.Polynomial.substitute", "self_s", "s"),
    ("pairing.apply_pairing.calls", "pairing.apply_pairing", "calls", "count"),
    ("pairing.apply_pairing.self_s", "pairing.apply_pairing", "self_s", "s"),
    ("arcgen.arc_generators_up_to.calls", "arcgen.arc_generators_up_to", "calls", "count"),
    ("linalg.RationalMatrix.kernel_basis.calls", "linalg.RationalMatrix.kernel_basis", "calls", "count"),
    ("linalg.RationalMatrix.kernel_basis.self_s", "linalg.RationalMatrix.kernel_basis", "self_s", "s"),
    ("linalg.RationalMatrix.kernel_basis.cells", "linalg.RationalMatrix.kernel_basis", "cells", "count"),
    ("linalg.RationalMatrix.row_reduce.calls", "linalg.RationalMatrix.row_reduce", "calls", "count"),
    ("linalg.RationalMatrix.row_reduce.self_s", "linalg.RationalMatrix.row_reduce", "self_s", "s"),
    ("linalg.RationalMatrix.row_reduce.cells", "linalg.RationalMatrix.row_reduce", "cells", "count"),
    ("linalg.RationalMatrix.new.self_s", "linalg.RationalMatrix.new", "self_s", "s"),
    ("linalg.Span.new.self_s", "linalg.Span.new", "self_s", "s"),
    ("linalg.Span.from_polynomials.calls", "linalg.Span.from_polynomials", "calls", "count"),
    ("linalg.Span.from_polynomials.self_s", "linalg.Span.from_polynomials", "self_s", "s"),
    ("linalg.Span.from_polynomials.rank_ratio", "linalg.Span.from_polynomials",
     ("dimension", "inputs_nonzero"), "ratio"),
    ("linalg.Span.basis_polynomials.calls", "linalg.Span.basis_polynomials", "calls", "count"),
    ("linalg.Span.basis_polynomials.self_s", "linalg.Span.basis_polynomials", "self_s", "s"),
    ("linalg.Span.contains.calls", "linalg.Span.contains", "calls", "count"),
    ("linalg.Span.contains.self_s", "linalg.Span.contains", "self_s", "s"),
    ("linalg.Span.contains.total_s", "linalg.Span.contains", "total_s", "s"),
    ("hankel.iter_minors.calls", "hankel.iter_minors", "calls", "count"),
    ("hankel.iter_minors.minors", "hankel.iter_minors", "minors", "count"),
    ("hankel.iter_minors.zero_ratio", "hankel.iter_minors", ("zeros", "minors"), "ratio"),
    ("hankel.iter_minors.self_s", "hankel.iter_minors", "self_s", "s"),
    ("hankel.minor.calls", "hankel.minor", "calls", "count"),
    ("perp.perp_graded_basis.calls", "perp.perp_graded_basis", "calls", "count"),
    ("perp.perp_graded_basis.self_s", "perp.perp_graded_basis", "self_s", "s"),
    ("perp.perp_graded_basis.total_s", "perp.perp_graded_basis", "total_s", "s"),
    ("perp.restriction_span.calls", "perp.restriction_span", "calls", "count"),
    ("perp.hankel_minor_intersection_span.self_s", "perp.hankel_minor_intersection_span", "self_s", "s"),
)

# Untraced and traced children per traced run: the overhead ratio is a ratio
# of medians, and the counts of every traced child must agree.
TRACE_PAIRS = 3


def layer_metrics(summary: dict, plain_s: float, traced_s: float, checks: dict) -> dict:
    """Per-layer metrics from a tracer summary; functions never called read 0."""
    functions = summary["functions"]

    def field(function: str, name) -> float:
        stat = functions.get(function, {})
        if isinstance(name, tuple):
            num, den = (stat.get(n, 0) for n in name)
            return num / den if den else 0.0
        if name in ("self_s", "total_s"):
            return stat.get(name[:-2] + "_ns", 0) / 1e9
        return stat.get(name, 0)

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        self_ns = sum(s["self_ns"] for f, s in functions.items() if f.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (self_ns / 1e9, "s")
    for metric, function, name, unit in FUNCTION_METRICS:
        metrics[metric] = (field(function, name), unit)
    for name in CHECK_NAMES:
        metrics[f"reports.check.{name}_s"] = (checks.get(name, 0.0), "s")
    metrics["traced_verdict_s"] = (traced_s, "s")
    metrics["trace_overhead_ratio"] = (traced_s / plain_s if plain_s else 0.0, "ratio")
    return metrics


def _parse(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _strip_timings(report):
    if isinstance(report, dict) and isinstance(report.get("checks"), list):
        for check in report["checks"]:
            check.pop("elapsed_ms", None)
    return report


def trace_problems(summary: dict, traced_s: float) -> list[str]:
    """Self times must be non-negative and sum to at most the traced wall time."""
    selfs = [s["self_ns"] for s in summary["functions"].values()]
    problems = [f"negative self time {v} ns" for v in selfs if v < 0]
    if sum(selfs) / 1e9 > traced_s:
        problems.append(f"self times sum to {sum(selfs) / 1e9:.3f} s, above the traced {traced_s:.3f} s")
    return problems


def counts_of(summary: dict) -> dict:
    """Everything in a trace that is not a time; it must repeat exactly."""
    return {name: {k: v for k, v in stat.items() if not k.endswith("_ns")}
            for name, stat in summary["functions"].items()}


def _traced_child(workload: str, seed: int, argv: list[str], plain: ChildRun, deadline: float):
    """One traced CLI run: its wall time, its trace (None if it failed) and its problems."""
    run = run_child([sys.executable, str(BENCH / "traced_cli.py"), *argv], deadline)
    result = _parse(run.stdout) if run.exit_code == 0 else None
    if result is None:
        return run, None, [f"tracer exit code {run.exit_code}"]
    problems = trace_problems(result, run.wall_s)
    problems += gate(workload, result["exit_code"], result["output"], seed)
    if _strip_timings(_parse(result["output"])) != _parse(plain.stdout):
        problems.append("traced output differs from the untraced output")
    return run, result, problems


def traced(workload: str, seed: int, deadline: float) -> dict:
    argv = WORKLOADS[workload].argv(seed)
    # verify keeps its per-check timings in the traced run: they are metrics.
    traced_argv = [a for a in argv if a != "--no-timings"]
    failed = 0
    plain_walls: list[float] = []
    traces: list[tuple[float, dict]] = []
    for _ in range(TRACE_PAIRS):
        plain = run_child(cli_command(argv), deadline)
        plain_walls.append(plain.wall_s)
        problems = gate(workload, plain.exit_code, plain.stdout, seed)
        if problems:
            failed += 1
            _report_failure(workload, plain, problems)
        run, result, problems = _traced_child(workload, seed, traced_argv, plain, deadline)
        if problems:
            failed += 1
            _report_failure(workload, run, problems)
        else:
            traces.append((run.wall_s, result))
    if any(counts_of(r) != counts_of(traces[0][1]) for _, r in traces):
        failed += 1
        print(f"{workload}: count metrics differ between traced runs", file=sys.stderr)

    # Times come from the traced child with the median wall time.
    traced_s, result = sorted(traces, key=lambda t: t[0])[len(traces) // 2] if traces else (0.0, {})
    summary = {"functions": result.get("functions", {}), "edges": result.get("edges", [])}
    report = _parse(result.get("output", ""))
    checks = {}
    if isinstance(report, dict):
        checks = {c["name"]: c["elapsed_ms"] / 1000.0 for c in report.get("checks", [])}
    metrics = layer_metrics(summary, statistics.median(plain_walls), traced_s, checks)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-trace.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "argv": traced_argv, "seed": seed,
                   "metrics": {k: v for k, (v, _) in metrics.items()}, **summary}, fh, indent=1)
    return {"attempted": 2 * TRACE_PAIRS, "failed": failed, "metrics": metrics,
            "notes": {"untraced_verdict_s": statistics.median(plain_walls)}}


# -- entry point -----------------------------------------------------------------


def _report_failure(workload: str, run: ChildRun, problems: list[str]) -> None:
    print(f"{workload}: wrong verdict: {'; '.join(problems[:5])}", file=sys.stderr)
    if run.stderr.strip():
        print(run.stderr.strip()[-2000:], file=sys.stderr)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= RUN_LIMIT_S:
        parser.error(f"--seconds must be in (0, {RUN_LIMIT_S:g}]")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "arcperp" / "cli.py").is_file():
        print(f"error: no arcperp sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    # On SIGTERM, unwind as on Ctrl-C, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if args.trace:
        result = traced(args.workload, args.seed, deadline)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds, deadline)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"runs {result['attempted']} (closed loop: one client, one child at a time)")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:52s} {value:14.6g} {unit}")
    for name, value in result["notes"].items():
        print(f"  {name:52s} {value:14.6g}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
