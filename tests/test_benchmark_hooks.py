"""The benchmark's traced mode patches the dpdopt names that
perfbench/tracing.py lists in SPANS; every one of them must still exist and
be callable, or the traced benchmark breaks."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracing.py")


def test_traced_names_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for _, targets in tracing.SPANS:
        for target in targets:
            module_name, attr = target.split(":")
            owner = importlib.import_module(f"dpdopt.{module_name}")
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(target)
    assert not missing, f"SPANS names no callable at {missing}"
