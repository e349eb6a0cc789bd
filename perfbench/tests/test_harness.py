"""Tests of the benchmark harness itself, on the light diffusion entries.

    python3 -m pytest perfbench/tests -q
"""

import json

import pytest

import report
import run
from run import check_items, declared_metrics, expected_items, measure, quiet_pass_s, run_worker

LIGHT = ["diffusion-consistent", "diffusion-approach-a", "diffusion-approach-b"]


def quiet(*_):
    pass


def test_smoke_untraced_solve():
    attempted, failed, metrics, env = measure("solve-corpus", 7, 0, False, LIGHT, log=quiet)
    assert (attempted, failed) == (len(LIGHT), 0)
    assert list(metrics) == [name for name, _ in declared_metrics(False)]
    assert metrics["ok_frac"]["value"] == 1
    assert all(m["value"] > 0 for m in metrics.values())
    assert env["backend"] and env["nproc"] >= 1


def test_smoke_traced_certify():
    attempted, failed, metrics, _ = measure("certify-corpus", 7, 0, True, LIGHT, log=quiet)
    assert failed == 0 and attempted == 12
    assert list(metrics) == [name for name, _ in declared_metrics(True)]
    value = {name: m["value"] for name, m in metrics.items()}
    # wrappers reach calls made through copied bindings (verify -> euler_residuals -> euler)
    assert value["jets.euler.calls"] > 0 and value["fluxes.reconstruct.calls"] == 12
    assert value["multipliers.determining_system.calls"] == 0


def test_self_times_do_not_exceed_the_traced_time():
    res = run_worker("solve-corpus", 7, trace=True, entries=LIGHT)
    own = sum(v for k, v in res["layers"].items() if k.endswith(".self_s"))
    assert 0 < own <= res["setup_s"] + res["wall_s"]


def test_corrupted_reference_digest_fails_the_item(tmp_path, monkeypatch):
    reference = json.loads(run.REFERENCE.read_text())
    reference["solve-corpus"]["diffusion-approach-a"]["basis_sha256"] = "0" * 64
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", corrupted)
    attempted, failed, metrics, _ = measure("solve-corpus", 7, 0, False, LIGHT, log=quiet)
    assert (attempted, failed) == (len(LIGHT), 1)
    assert metrics["ok_frac"]["value"] < 1


def test_unexpected_status_fails_even_if_reference_agrees():
    items = {"e/1": {"fluxes_sha256": "x", "status": "fail", "expected_status": "identity"}}
    assert check_items("certify-corpus", items, dict(items)) == ["e/1"]
    assert check_items("solve-corpus", {}, {"e": {}}) == ["e"]  # missing item


def test_wall_time_sums_each_items_fastest_time():
    passes = [{"item_s": {"a": 2.0, "b": 1.0}}, {"item_s": {"a": 1.5, "b": 1.25}}, {"item_s": {"b": 3.0}}]
    assert quiet_pass_s(passes) == 2.5


@pytest.mark.parametrize("workload", ["solve-corpus", "certify-corpus"])
def test_workload_seed_does_not_change_digests(workload):
    a = run_worker(workload, 1, entries=LIGHT)["items"]
    b = run_worker(workload, 2, entries=LIGHT)["items"]
    assert a == b
    reference = json.loads(run.REFERENCE.read_text())
    assert a == expected_items(reference, workload, LIGHT)


def test_report_overhead_and_refusal_of_mixed_backends(tmp_path, capsys):
    env = {"backend": "python", "python": "3.11.7", "nproc": 2}
    record = {"workload": "certify-corpus", "seed": 1, "trace": 0, "env": env,
              "metrics": {"wall_s": {"value": 0.6, "unit": "s"}}}
    traced = {**record, "trace": 1, "metrics": {"trace.wall_s": {"value": 0.75, "unit": "s"}}}
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps(record) + "\n" + json.dumps(traced) + "\n")
    assert report.main([str(records)]) == 0
    assert "tracing overhead (trace.wall_s - wall_s) 0.150 s" in capsys.readouterr().out
    record["env"] = {**env}
    record["env"]["backend"] = "cython"
    with open(records, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    assert report.main([str(records)]) == 2
    assert "refusing" in capsys.readouterr().err
