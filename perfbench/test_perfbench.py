"""Tests of the benchmark itself: the correctness gate and the outside tracer.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q perfbench

The tracer patches modules in place, so it only ever runs in a child process
here (``traced_cli.py``), never in the test process.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run
import tracer

SEED = 5


def _reference_text(workload: str, seed: int = SEED) -> str:
    return json.dumps(run.reference_for(workload, seed))


def _verify_report() -> dict:
    return run.reference_for("verify-kernel", SEED)


# -- the correctness gate --------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_gate_accepts_the_reference(workload):
    assert run.gate(workload, 0, _reference_text(workload), SEED) == []


def test_gate_takes_the_seed_from_the_run():
    problems = run.gate("verify-kernel", 0, _reference_text("verify-kernel", SEED + 1), SEED)
    assert any("seed" in p for p in problems)


def test_gate_ignores_keys_the_reference_lacks():
    report = _verify_report()
    report["stats"] = {"minors": 55}
    for check in report["checks"]:
        check["elapsed_ms"] = 12.5
        check["dimensions"]["memo_hits"] = 3
    report["checks"].append({"name": "a_new_check", "passed": True})
    assert run.gate("verify-kernel", 0, json.dumps(report), SEED) == []


def test_gate_rejects_a_dimension_off_by_one():
    report = _verify_report()
    check = next(c for c in report["checks"] if c["name"] == "kernel_equals_hankel_minor_span")
    check["dimensions"]["2"] += 1
    problems = run.gate("verify-kernel", 0, json.dumps(report), SEED)
    assert problems and all("kernel_equals_hankel_minor_span" in p for p in problems)


def test_gate_rejects_passed_false():
    report = _verify_report()
    report["passed"] = False
    assert run.gate("verify-kernel", 0, json.dumps(report), SEED)


def test_gate_rejects_a_wrong_exit_code_and_non_json():
    assert run.gate("series-minors", 1, _reference_text("series-minors"), SEED) == ["exit code 1"]
    assert run.gate("series-minors", 0, "h=0: dimension=2", SEED) == ["output is not JSON"]


def test_closed_form_is_computed_not_read():
    # A report that agrees with itself (closed_form == dimension, match true)
    # but not with (n+1)^(h+1) is still wrong.
    series = run.WORKLOADS["series-minors"]
    rows = json.loads(_reference_text("series-minors"))
    rows[3]["dimension"] = rows[3]["closed_form"] = (series.n + 1) ** 4 - 1
    problems = run.closed_form_mismatches(series, rows)
    assert problems == [f"h=3: {(series.n + 1) ** 4 - 1}, closed form {(series.n + 1) ** 4}"]

    spec = run.WORKLOADS["chain-contain"]
    closed = (spec.n + 1) ** (spec.h + 1)
    chain = {"triangular": closed, "scaled": closed, "scaled_augmented": closed + 1}
    problems = run.closed_form_mismatches(spec, chain)
    assert problems == [f"scaled_augmented: {closed + 1}, closed form {closed}"]


def test_failures_feed_the_pass_ratio(monkeypatch):
    good = _reference_text("verify-kernel")
    off_by_one = _verify_report()
    off_by_one["checks"][2]["dimensions"]["1"] -= 1
    failed_verdict = _verify_report()
    failed_verdict["passed"] = False
    outputs = iter([good, json.dumps(off_by_one), json.dumps(failed_verdict), good])

    def fake_child(cmd, deadline):
        if cmd[1:3] == ["-m", "arcperp.cli"]:
            return run.ChildRun(1.0, 1.0, 50.0, 0, next(outputs), "")
        return run.ChildRun(0.5, 0.5, 10.0, 0, "", "")  # the import and the probe

    monkeypatch.setattr(run, "run_child", fake_child)
    # Each cycle takes 2 s: the probe before it and four cycles fit in 9 s.
    result = run.end_to_end("verify-kernel", SEED, seconds=9.0, deadline=1e18)
    assert (result["attempted"], result["failed"]) == (4, 2)
    assert result["metrics"]["pass_ratio"] == (0.5, "ratio")
    assert result["notes"]["fail_ratio"] == 0.5
    assert result["metrics"]["verdict_s"] == (run.PROBE_REF_S * 1.0 / 0.5, "s")


def test_times_are_scaled_by_the_probes_around_them():
    # The host slowed down while the second value was measured.
    probes = [run.PROBE_REF_S, run.PROBE_REF_S, 2 * run.PROBE_REF_S]
    assert run.at_reference_speed([3.0, 6.0], probes) == pytest.approx(3.5)


def test_missing_sources_give_no_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "no-such-src")
    code = run.main(["--workload", "series-minors", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_every_metric():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    empty = {"functions": {}, "edges": []}
    per_layer = run.layer_metrics(empty, 1.0, 1.0, {})
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert all(m["unit"] == per_layer[m["name"]][1] for m in spec["per_layer"])
    e2e = {"verdict_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s", "pass_ratio": "ratio"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == e2e


# -- the tracer, with a fake clock ----------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def test_self_time_excludes_child_spans(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer, "_now", clock)
    t = tracer.Tracer()

    inner = t.wrap("m.inner", lambda: clock.advance(30))

    def outer_body():
        clock.advance(5)
        inner()
        inner()
        clock.advance(7)

    t.wrap("m.outer", outer_body)()
    functions = t.summary()["functions"]
    assert functions["m.outer"] == {"calls": 1, "self_ns": 12, "total_ns": 72}
    assert functions["m.inner"] == {"calls": 2, "self_ns": 60, "total_ns": 60}
    assert {(e["parent"], e["child"], e["calls"]) for e in t.summary()["edges"]} == {
        ("<root>", "m.outer", 1), ("m.outer", "m.inner", 2),
    }


def test_generator_time_is_counted_in_next(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer, "_now", clock)
    t = tracer.Tracer()

    def produce():
        for i in range(3):
            clock.advance(10)  # the lazy work a plain wrapper would miss
            yield (0, (), (), i)

    def consume():
        for _ in gen():
            clock.advance(1)

    gen = t.wrap_generator("m.produce", produce, lambda item, stat: stat.count("items", 1))
    t.wrap("m.consume", consume)()
    functions = t.summary()["functions"]
    assert functions["m.produce"] == {"calls": 1, "self_ns": 30, "total_ns": 30, "items": 3}
    assert functions["m.consume"]["self_ns"] == 3


# -- the tracer on the real package, in a child process ----------------------------


def _cli(args):
    proc = subprocess.run(run.cli_command(args), cwd=run.ROOT, env=run.child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _traced(args):
    proc = subprocess.run([sys.executable, str(run.BENCH / "traced_cli.py"), *args],
                          cwd=run.ROOT, env=run.child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


SMALL = {
    "series": ["series", "--n", "1", "--h-max", "4", "--json"],
    "dims-chain": ["dims-chain", "--n", "2", "--h", "1", "--json"],
    "verify": ["verify", "--n", "1", "--h", "1", "--no-timings", "--json"],
}


@pytest.mark.parametrize("command", sorted(SMALL))
def test_traced_output_equals_untraced_output(command):
    traced = _traced(SMALL[command])
    assert traced["exit_code"] == 0
    assert traced["output"] == _cli(SMALL[command])
    selfs = [f["self_ns"] for f in traced["functions"].values()]
    assert min(selfs) >= 0
    assert sum(selfs) <= traced["main_ns"]


def test_counts_repeat_exactly():
    def counts(result):
        return {name: {k: v for k, v in f.items() if not k.endswith("_ns")}
                for name, f in result["functions"].items()}

    first, second = _traced(SMALL["verify"]), _traced(SMALL["verify"])
    assert counts(first) == counts(second)
    assert counts(first)["pairing.apply_pairing"]["calls"] > 0


def test_attribution_reaches_imported_names_generators_and_classes():
    result = _traced(SMALL["series"])
    functions = result["functions"]
    edges = {(e["parent"], e["child"]) for e in result["edges"]}
    # perp imported minor_span with ``from .hankel import``; the call is still seen.
    assert ("perp.truncated_perp_basis", "hankel.minor_span") in edges
    # Every minor of each triangular matrix (h+1 rows, h+1 columns for n = 1)
    # is enumerated through the generator wrapper, and its time counts there.
    from math import comb
    expected = sum(comb(h + 1, s) * comb(h + 1, s) for h in range(5) for s in range(h + 2))
    assert functions["hankel.iter_minors"]["minors"] == expected
    assert functions["hankel.iter_minors"]["self_ns"] > functions["hankel.minor_span"]["self_ns"]
    # Classmethods and constructors patched on the class: one Span per degree.
    assert functions["linalg.Span.from_polynomials"]["calls"] == sum(h + 2 for h in range(5))
    assert functions["ring.Polynomial.new"]["calls"] > 0
    assert "ring.Polynomial.mul" not in {e["child"] for e in result["edges"]}  # counted, not timed
