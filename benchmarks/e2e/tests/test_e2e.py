"""Smoke tests of the end-to-end benchmark itself.

Run with ``python -m pytest benchmarks/e2e/tests`` (not part of the
tier-1 suite). They drive ``run.main`` at ``--smoke`` sizes, so every
launch is still a real subprocess through the public ``qmpi_run``.
"""

import json
import sys
import threading
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(E2E))

import compare  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "bytes")
#: Rank threads share one schedule cache, so which of two ranks' equal
#: flushes compiles (a miss) and which reuses it (a hit) is a thread
#: race. Single-rank and ``mp`` rows repeat whole.
RACE_DEPENDENT = {
    "sim.cache.hits",
    "sim.cache.misses",
    "sim.schedule.lower_flush.calls",
    "sim.schedule.compile_segments.calls",
    "sim.statevector.freeze_segments.calls",
}


def run_benchmark(capsys, *argv):
    """``run.main`` on ``argv``; returns ``(exit code, stdout lines)``."""
    try:
        code = run.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out.splitlines()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced smoke run of every workload: ``(report, spans by workload)``."""
    tmp = tmp_path_factory.mktemp("traced")
    out, trace_out = tmp / "out.json", tmp / "spans.json"
    argv = ["--smoke", "--seconds", "0.2", "--trace", "1", "--seed", "5"]
    assert run.main([*argv, "--out", str(out), "--trace-out", str(trace_out)]) == 0
    return json.loads(out.read_text()), json.loads(trace_out.read_text())


def test_benchmark_json_names_are_the_workloads_in_code():
    import workloads

    assert WORKLOADS == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_every_per_layer_name_is_emitted_and_vice_versa(traced):
    report, _ = traced
    named = {m["name"] for m in SPEC["per_layer"]}
    for name in WORKLOADS:
        row = report["workloads"][name]
        assert set(row["per_layer"]) == named, name
        assert row["failed"] == 0, row["problems"]


def test_contract_line_carries_every_end_to_end_metric(capsys):
    argv = ["--smoke", "--workload", "sweep_small", "--seed", "7", "--seconds", "0.3"]
    code, lines = run_benchmark(capsys, *argv, "--trace", "0")
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_exactly_between_two_traced_runs(traced, tmp_path, capsys):
    report, _ = traced
    for name in ("tfim_ring", "catbcast_mp"):  # p2p + EPR + cache counts; RPC counts
        out = tmp_path / f"{name}.json"
        argv = ["--smoke", "--seconds", "0.2", "--trace", "1", "--seed", "5", "--workload", name]
        code, _ = run_benchmark(capsys, *argv, "--out", str(out))
        assert code == 0
        again = json.loads(out.read_text())["workloads"][name]["per_layer"]
        first = report["workloads"][name]["per_layer"]
        racy = RACE_DEPENDENT if name == "tfim_ring" else ()
        for metric in SPEC["per_layer"]:
            if metric["unit"] in COUNT_UNITS and metric["name"] not in racy:
                assert again[metric["name"]] == first[metric["name"]], (name, metric["name"])


def test_each_ranks_spans_sum_to_its_root(traced):
    import workloads

    _, by_workload = traced
    for name, wl in workloads.WORKLOADS.items():
        roots = spans.root_sums(by_workload[name]["spans"], "qmpi.api.rank_fn")
        if wl.transport != "inproc":
            assert roots == []  # rank processes are not traced
            continue
        assert sorted(rank for rank, _, _ in roots) == list(range(wl.n_ranks))
        for _, duration, summed in roots:
            assert summed == pytest.approx(duration, rel=0.01)


def test_a_wrong_oracle_fails_the_run(monkeypatch, capsys, tmp_path):
    honest = reference.sweep

    def wrong(n, angles):
        ref = honest(n, angles)
        ref["state"] = ref["state"][::-1].copy()
        return ref

    monkeypatch.setattr(reference, "sweep", wrong)
    out = tmp_path / "out.json"
    argv = ["--smoke", "--workload", "sweep_small", "--seed", "7", "--seconds", "0.2"]
    code, lines = run_benchmark(capsys, *argv, "--trace", "0", "--out", str(out))
    assert code != 0
    assert not lines[-1].startswith("{")  # no result line for a run that measured nothing
    assert any("FAILED" in line and "differs from the oracle" in line for line in lines)
    row = json.loads(out.read_text())["workloads"]["sweep_small"]
    assert row["failed"] == row["attempted"] > 0  # fail_rate 1


def test_recorder_restores_originals_and_nests_per_thread():
    class Layer:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    original_outer, original_inner = vars(Layer)["outer"], vars(Layer)["inner"]
    recorder = spans.Recorder()
    recorder.install(Layer, "outer", lambda fn: recorder.wrap(fn, "outer"))
    recorder.install(Layer, "inner", lambda fn: recorder.wrap(fn, "inner"))
    threads = [threading.Thread(target=Layer().outer, name=f"rank-{r}") for r in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
        assert not t.is_alive()
    recorder.uninstall()
    assert vars(Layer)["outer"] is original_outer and vars(Layer)["inner"] is original_inner

    recorded, _ = recorder.drain()
    assert sorted(s["rank"] for s in recorded if s["name"] == "outer") == [0, 1, 2]
    for span in recorded:
        if span["name"] == "inner":
            parent = recorded[span["parent"]]
            assert parent["name"] == "outer" and parent["rank"] == span["rank"]
    table = spans.by_layer(recorded)
    assert table["outer"][1] == 3 and table["inner"][1] == 6
    total = sum(s["end"] - s["start"] for s in recorded if s["name"] == "outer")
    assert table["outer"][0] + table["inner"][0] == pytest.approx(total)


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98]
    assert compare.verdict(steady, [1.2 * x for x in steady], "lower", 0.1)[0] == "regressed"
    assert compare.verdict(steady, [1.2 * x for x in steady], "higher", 0.1)[0] == "ok"
    assert compare.verdict(steady, [1.05 * x for x in steady], "lower", 0.1)[0] == "ok"
    noisy = [1.0, 1.4, 0.8, 1.3, 0.9, 1.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(noisy, [0.5 * x for x in steady], "lower", 0.1)[0] == "ok"
