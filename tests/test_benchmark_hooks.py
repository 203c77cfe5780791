"""The benchmark under perfbench/ reaches into the package by name: its tracer
wraps the layers' entry points listed in `spans.TARGETS` and the CLI
commands' callbacks, its workloads time `cli.training.train` and calibrate
on `cli.training.adam_update`, and its run record reads
`kernels.active_backend()`.
A refactor that moves or renames one of them breaks the traced run, so
these names are checked here; perfbench/spans.py is only read."""

import importlib
from pathlib import Path

import metric_rec
from metric_rec import cli, kernels, training

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    """The names perfbench/spans.py defines, run from its source (no bytecode
    is written next to it)."""
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), namespace)
    return namespace


def test_every_traced_entry_point_resolves():
    spans = _spans()
    assert spans["TARGETS"]
    for module, attr, name in spans["TARGETS"]:
        owner = importlib.import_module(f"{metric_rec.__name__}.{module}")
        assert callable(getattr(owner, attr, None)), (module, attr, name)
    for command in spans["COMMANDS"]:
        assert callable(getattr(getattr(cli, command), "callback", None)), command


def test_the_recorded_kernel_backend_resolves():
    assert isinstance(kernels.active_backend(), str)


def test_the_training_entry_points_the_workloads_patch_resolve_through_cli():
    assert cli.training is training
    assert callable(cli.training.train) and callable(cli.training.adam_update)
