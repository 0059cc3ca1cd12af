"""Tests of the benchmark itself, on a two-network corpus.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: The two smallest enterprise networks of ``paper_dataset``.
TINY = [23, 25]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink a run: two small networks, one set-up, work dir in tmp."""
    monkeypatch.setattr(
        run, "generate_corpus",
        lambda seed: workloads.generate_corpus(seed, only=TINY))
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")


def bench(capsys, workload, trace=0, seconds=0.3):
    """Run the benchmark; return (exit code, result, stdout, stderr)."""
    code = run.main(["--workload", workload, "--seed", "7",
                     "--seconds", str(seconds), "--trace", str(trace)])
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    return code, result, captured.out, captured.err


def units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(
        tiny, capsys, workload):
    code, result, out, _ = bench(capsys, workload)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    emitted = {name: value["unit"]
               for name, value in result["metrics"].items()}
    assert emitted == units(SPEC["end_to_end"])
    for name in emitted:
        assert result["metrics"][name]["value"] > 0, name
    assert "error_rate" in out
    assert "perfbench-env" in out
    # No daemon, pool worker or resource tracker outlives the run.
    assert workloads._tree_pids(os.getpid())[1:] == []


@pytest.mark.parametrize("workload", ["batch-j2", "corpus-durable"])
def test_every_per_layer_metric_is_emitted_with_its_unit(
        tiny, capsys, workload):
    code, result, _, _ = bench(capsys, workload, trace=1)
    assert code == 0 and result["correct"] is True
    emitted = {name: value["unit"]
               for name, value in result["metrics"].items()}
    assert emitted == units(SPEC["per_layer"])
    metrics = {name: value["value"]
               for name, value in result["metrics"].items()}
    assert metrics["rewrite.files"] >= 1
    assert metrics["freeze.busy_s"] > 0
    assert metrics["trace.overhead_ratio"] > 0
    if workload == "batch-j2":
        assert metrics["parallel.fanout_s"] > 0
        assert metrics["runner.writes"] >= 1
    else:
        assert metrics["journal.records"] >= 1
        assert metrics["server.requests"] == metrics["corpus.files"]


def test_a_corrupted_reference_byte_fails_the_run(tiny, capsys,
                                                  monkeypatch):
    real = workloads.References.get

    def corrupted(self, network, two_pass):
        expected = dict(real(self, network, two_pass))
        name = sorted(expected)[0]
        text = expected[name]
        expected[name] = text[:10] + chr(ord(text[10]) ^ 1) + text[11:]
        return expected

    monkeypatch.setattr(workloads.References, "get", corrupted)
    code, result, _, err = bench(capsys, "batch-j1")
    assert code == 1
    assert result["correct"] is False
    assert "MISMATCH" in err


def test_normalize_scales_only_the_cpu_bound_share():
    class Speed:
        cpus = [0.004]

        def wall_factor(self, index):
            return 2.0 if index == 0 else 0.5

        def cpu_factor(self):
            return 1.0

    window = workloads.Window()
    window.close(Speed(), [(1.0, [0.25]), (2.0, [0.5])])
    assert window.elapsed == 3.0 and window.probe_cpu == 0.004
    window.normalize(1.0)
    assert window.ref_elapsed == 1.0 * 2.0 + 2.0 * 0.5
    assert window.ref_latencies == [0.5, 0.25]
    window.normalize(0.0)
    assert window.ref_elapsed == window.elapsed
    assert window.ref_latencies == window.latencies
    window.normalize(0.5)
    assert window.ref_elapsed == 1.0 * 1.5 + 2.0 * 0.75


def test_check_outputs_reports_a_flipped_byte():
    network = workloads.generate_corpus(7, only=TINY[:1])[0]
    references = workloads.References(7)
    expected = references.get(network, two_pass=True)
    name = sorted(expected)[0]
    window = workloads.Window(outputs=[(network, name, expected[name])])
    assert workloads.check_outputs(window, references, True) == []
    flipped = "#" + expected[name][1:]
    window.outputs = [(network, name, flipped), (network, name, None)]
    problems = workloads.check_outputs(window, references, True)
    assert len(problems) == 2


def test_error_rate_counts_a_forced_non_ok_response(tiny, capsys,
                                                    monkeypatch):
    import threading

    from repro.service.client import ServiceClient

    real = ServiceClient.anonymize
    lock = threading.Lock()
    forced = []

    def anonymize(self, *args, **kwargs):
        response = real(self, *args, **kwargs)
        calls = self.__dict__.setdefault("test_calls", [0])
        calls[0] += 1
        with lock:
            # Call 1 of each client is the untimed warm-up.
            if calls[0] == 2 and not forced:
                forced.append(True)
                response = dict(response, status="fail_closed")
        return response

    monkeypatch.setattr(ServiceClient, "anonymize", anonymize)
    code, result, out, _ = bench(capsys, "service-stream", seconds=0.5)
    assert forced
    assert result["failed"] == 1
    line = next(l for l in out.splitlines() if l.startswith("error_rate"))
    assert float(line.split()[1]) == pytest.approx(
        1 / result["attempted"], abs=1e-4)


def test_tracing_wrappers_are_removed_after_the_traced_run(tiny, capsys):
    probe = Tracer()
    probe.install()
    targets = [(owner, attr) for owner, attr, _ in probe._patches]
    probe.uninstall()
    before = {(id(owner), attr): owner.__dict__[attr]
              for owner, attr in targets}
    code, result, _, _ = bench(capsys, "batch-j1", trace=1)
    assert code == 0 and result["correct"] is True
    for owner, attr in targets:
        current = owner.__dict__[attr]
        assert current is before[(id(owner), attr)], (owner, attr)
        assert not getattr(current, "bench_traced", False)

    from repro.core import Anonymizer, AnonymizerConfig

    anonymizer = Anonymizer(AnonymizerConfig(salt=b"after"))
    for rule in anonymizer.rules:
        assert not getattr(rule.apply, "bench_traced", False), rule.rule_id
    for plugin in anonymizer.plugins:
        assert "freeze_scan" not in plugin.__dict__


def test_self_time_subtracts_child_coverage():
    spans = [
        (1, "parent", 0.0, 10.0, None, None, 1),
        (2, "child", 1.0, 3.0, 1, None, 1),
        (3, "child", 2.0, 5.0, 1, None, 1),  # overlaps the first child
        (4, "grandchild", 2.5, 3.0, 3, None, 1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(6.0)
    assert own[3] == pytest.approx(2.5)
    assert own[4] == pytest.approx(0.5)
