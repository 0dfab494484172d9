"""The benchmark's tracer wraps package functions by module and name; a
refactor that renames or moves one must fail here, not leave a span that
silently reads zero."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# wrapped by the tracer, but gone from the package: removing the target is
# the benchmark's own change, and this set must shrink with it
STALE = {("excel.training_eval", "seg_loss_gradient")}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_tracer_target_resolves():
    targets = _load_tracer().TARGETS
    assert targets
    unresolved = {(t.module, t.attr) for t in targets if not hasattr(importlib.import_module(t.module), t.attr)}
    assert unresolved == STALE
    for target in targets:
        for site in target.sites:
            assert importlib.import_module(site).__dict__.get(target.attr) is not None, (site, target.attr)
