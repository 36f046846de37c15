"""The benchmark's tracer still finds and counts what it wraps in the package.

``bench/tracer.py`` patches package functions and target methods by name
and reads the engine's stats and return values. Its traced runs fail an
exact self-check when the gradient rows it counts in the engine differ
from the summary's gradient evaluations, so a package change that moves
one of those names would only show when the benchmark runs. This test
imports the tracer read-only and runs one small traced sample.
"""
import json
import types
from pathlib import Path

from stlmc import cli

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
# wrapped names that no package module defines any more; their metrics read 0
KNOWN_MISSING = {"stlmc.tempering_chain.run_macro_step"}


def _load_tracer():
    # compiled from source, so no bytecode cache is written under bench/
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_counts_the_engine_gradient_rows(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "target": {"weights": [0.5, 0.5], "means": [[-1.5], [1.5]], "sigma2": 1.0},
        "run": {"eta": 0.1, "T": 0.5, "t": 40, "m": 10, "seed": 1, "workers": 1},
        "n_samples": 50,
    }))
    (tmp_path / "children").mkdir()
    tracer = _load_tracer().Tracer(str(tmp_path / "children"))
    tracer.install()
    try:
        code = cli.main(["sample", "--config", str(cfg), "--out", str(tmp_path / "run"),
                         "--trace"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.missing <= KNOWN_MISSING
    summary = (tmp_path / "run" / "summary.txt").read_text()
    grad_evals = int(summary.split("gradient evaluations:", 1)[1].split()[0])
    totals = tracer.totals
    assert totals["engine.f_and_grad.rows"] == grad_evals > 0
    assert totals["engine.chains"] == totals["partition_estimator.chains"] > 0
