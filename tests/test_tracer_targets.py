"""The benchmark's tracer wraps package functions by module and name; a
refactor that renames or moves one must fail here, not leave a span that
silently reads zero."""

import importlib
import importlib.util
import sys
import threading
from pathlib import Path

from excel import encoder
from excel.config import parse_config
from excel.pipeline import run_pipeline

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# wrapped by the tracer, but gone from the package: removing the target is
# the benchmark's own change, and this set must shrink with it. The five
# one-image calls went when the stacked calls became the only calls, and
# the checked `matmul` when the package was left its only caller.
STALE = {
    ("excel.training_eval", "seg_loss_gradient"),
    ("excel.numerics", "matmul"),
    ("excel.encoder", "encode"),
    ("excel.static_calibration", "run_static_pipeline"),
    ("excel.dynamic_calibration", "dynamic_cam"),
    ("excel.dynamic_calibration", "adapter_forward"),
    ("excel.dynamic_calibration", "diversity_loss_gradient"),
}

# (site module, name) pairs the tracer rebinds, but that the site no longer
# binds: blobio stopped checksumming with fnv1a64 when the excel-tensors-v1
# reader retired. Removing the site is the benchmark's own change, and this
# set must shrink with it.
STALE_SITES = {("excel.blobio", "fnv1a64")}


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
    unbound = {
        (site, target.attr)
        for target in targets
        for site in target.sites
        if importlib.import_module(site).__dict__.get(target.attr) is None
    }
    assert unbound == STALE_SITES


def test_spans_begin_on_the_calling_thread_and_nest(monkeypatch, tmp_path, fixture_paths):
    # a full run, whose static and dynamic stages each run the 32 fixture
    # images as two chunks of 16 T=17 images, both in flight at once: every
    # traced call stays on the calling thread, so the tracer's one span
    # stack nests strictly
    tracer_module = _load_tracer()
    NAME, PARENT, START, END = (getattr(tracer_module, k) for k in ("NAME", "PARENT", "START", "END"))
    caller, span_threads, pass_threads = threading.get_ident(), [], []

    class ThreadTracer(tracer_module.Tracer):
        def begin(self, name, attrs=None):
            span_threads.append(threading.get_ident())
            return super().begin(name, attrs)

    real_stack = encoder.encode_stack

    def recording_stack(*args):
        pass_threads.append(threading.get_ident())
        return real_stack(*args)

    monkeypatch.setattr(encoder, "encode_stack", recording_stack)
    cfg = parse_config(
        {
            "weights": str(fixture_paths["weights"]),
            "knowledge": str(fixture_paths["knowledge"]),
            "dataset": str(fixture_paths["dataset"]),
            "out_dir": str(tmp_path / "out"),
            "iterations": 2,
        }
    )
    tracer = ThreadTracer()
    tracer.install()
    try:
        run_pipeline(cfg)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    assert len(pass_threads) == 4 and set(pass_threads) - {caller}  # a static and a dynamic pair
    names = {span[NAME] for span in spans}
    assert {"pipeline.stage_static", "pipeline.stage_dynamic", "static_calibration.static_cam"} <= names
    assert span_threads == [caller] * len(spans)
    children = {}
    for idx, span in enumerate(spans):
        assert span[START] <= span[END], span[NAME]
        if span[PARENT] >= 0:
            parent = spans[span[PARENT]]
            assert parent[START] <= span[START] and span[END] <= parent[END], (span[NAME], parent[NAME])
        children.setdefault(span[PARENT], []).append(span)
    for siblings in children.values():
        for before, after in zip(siblings, siblings[1:]):
            assert before[END] <= after[START], (before[NAME], after[NAME])
