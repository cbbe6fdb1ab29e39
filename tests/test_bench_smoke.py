"""Smoke run of the benchmark harness and its own tests, so neither can
silently stop working.

Both run in a subprocess: the harness's tests put ``bench/tests`` on the
import path under the module name ``conftest``, which would shadow this
suite's ``conftest`` if both were collected in one session. No timing is
asserted.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_workload(name):
    """The (details, result) lines of a one-second untraced run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.strip().splitlines()[-2:]]


def test_the_bench_suite_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "bench/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr


def test_spectral_theory_workload_runs_and_passes_its_checks():
    _, result = run_workload("spectral_theory")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0


def test_recsys_workload_runs_and_passes_its_checks():
    detail, result = run_workload("recsys_ml100k")
    assert result["correct"] is True and detail["rounds_identical"] is True
    assert result["failed"] == 0 and result["attempted"] > 0


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists(monkeypatch):
    # the smoke run above uses --trace 0, which never installs the tracer;
    # install() raises AttributeError for a traced name the program lost
    tracer = load_tracing(monkeypatch).Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_tracer_wraps_every_target_and_uninstall_restores_it(monkeypatch):
    tracing = load_tracing(monkeypatch)
    owners = []
    for target in tracing.TARGETS:
        mod_name, _, cls_name = target.owner.partition(".")
        owner = importlib.import_module(f"gspnn.{mod_name}")
        if cls_name:
            owner = getattr(owner, cls_name)
        owners.append((owner, target.attr, vars(owner)[target.attr]))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [attr for owner, attr, fn in owners
                   if getattr(vars(owner)[attr], "__wrapped__", None) is fn]
    finally:
        tracer.uninstall()
    assert wrapped == [attr for _, attr, _ in owners]
    assert all(vars(owner)[attr] is fn for owner, attr, fn in owners)
