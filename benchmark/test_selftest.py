"""Self-test of the benchmark at a tiny size.

    python3 -m pytest benchmark/test_selftest.py -q

Runs every workload with and without tracing on a few articles (the model
shapes stay at the ``full`` profile), and checks that every metric of
``BENCHMARK.json`` is printed with its unit, that every correctness check
passes, and that the tracer puts back every name it rebinds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from generator import NewsGenerator  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    for name, value in (("TRAIN_RF_ARTICLES", 8), ("TRAIN_SVM_ARTICLES", 10),
                        ("TRAIN_NEURAL_ARTICLES", 4), ("PROBE_ARTICLES", 2), ("FEED_TRAIN", 8),
                        ("FEED_VAL", 4), ("FEED_TEST", 6), ("MODEL_SETS", 2)):
        monkeypatch.setattr(workloads, name, value)


def _result(capsys) -> dict:
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


def test_spec_matches_the_command():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracer_mod.PER_LAYER


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric_and_passes_checks(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    result = _result(capsys)
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def _bindings() -> dict:
    """Identity of every module global, module-level dict value and class attribute."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "baitline" or name.startswith("baitline.")):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = id(value)
            if type(value) is dict:
                for dkey, dvalue in value.items():
                    out[(name, key, repr(dkey))] = id(dvalue)
            if isinstance(value, type):
                for attr, raw in vars(value).items():
                    out[(name, key, "." + attr)] = id(raw)
    return out


def test_tracer_rebinds_everywhere_and_restores():
    import baitline.cli
    import baitline.neural.lstm
    import baitline.tensor.core as core

    original_backward = core.backward
    before = _bindings()
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert baitline.neural.lstm.backward is not original_backward
        assert baitline.cli._COMMANDS["train"] is baitline.cli.cmd_train
        assert baitline.cli.cmd_train.__wrapped__ is not None
        a = core.Tensor([1.0, 2.0])
        core.backward(core.tmean(a + a))
    finally:
        t.restore()
    assert _bindings() == before
    calls, _, _ = t.totals()
    assert calls["tensor.add"] == 1 and calls["tensor.tmean"] == 1 and calls["tensor.backward"] == 1
    assert t.counts["tensor.nodes"] >= 3


def test_self_time_subtracts_direct_children():
    t = tracer_mod.Tracer()
    t.names = ["outer", "inner", "leaf"]
    t.spans = [(0, 0.0, 10.0, -1, 1), (1, 1.0, 4.0, 0, 1), (2, 2.0, 3.0, 1, 1), (1, 5.0, 6.0, 0, 1)]
    calls, total, own = t.totals()
    assert calls == {"outer": 1, "inner": 2, "leaf": 1}
    assert own["outer"] == pytest.approx(6.0)
    assert own["inner"] == pytest.approx(3.0)
    assert total["inner"] == pytest.approx(4.0)


def test_generator_is_seeded():
    def texts(seed):
        gen = NewsGenerator(seed)
        return [(a.title, a.content, a.label) for a in (*gen.articles(3), *gen.feed(3))]

    assert texts(5) == texts(5)
    assert texts(5) != texts(6)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "train-real", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
