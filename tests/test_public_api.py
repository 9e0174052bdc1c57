"""The public surface: everything advertised is importable and coherent."""

import importlib

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize(
    "module",
    [
        "repro.sim",
        "repro.net",
        "repro.media",
        "repro.fec",
        "repro.core",
        "repro.streaming",
        "repro.analysis",
        "repro.metrics",
        "repro.obs",
        "repro.experiments",
        "repro.groupcomm",
        "repro.viz",
    ],
)
def test_subpackage_all_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__doc__, f"{module} missing docstring"
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.{name}"


def test_readme_quickstart_runs():
    """The README's quickstart snippet, verbatim."""
    from repro import ProtocolConfig, ProtocolSpec, SessionSpec

    spec = SessionSpec(
        config=ProtocolConfig(
            n=100,
            H=60,
            fault_margin=1,
            tau=1.0,
            delta=10.0,
            content_packets=600,
        ),
        protocol=ProtocolSpec("dcop"),
    )
    result = spec.run()
    assert result.rounds == 2
    assert result.delivery_ratio == 1.0


def test_docstrings_on_public_protocol_classes():
    from repro import core

    for name in core.__all__:
        obj = getattr(core, name)
        if isinstance(obj, type):
            assert obj.__doc__, f"{name} missing docstring"
