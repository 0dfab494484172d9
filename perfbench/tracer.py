"""In-memory span tracer that wraps the package's public functions.

Each target function is replaced, while the tracer is installed, in every
loaded `excel.*` module that binds it under its name, because a module
that did `from .encoder import encode` looks the name up in its own
globals. Nothing inside `src/` changes; `uninstall` puts every original
binding back.

A span is [name, parent index, start, end, attrs]. The package runs one
thread in one process, so spans nest strictly and a span's self time is
its duration minus the durations of its direct children.
"""

import hashlib
import importlib
import pkgutil
import sys
import time
from dataclasses import dataclass, field

NAME, PARENT, START, END, ATTRS = range(5)


def _digest(arr) -> bytes:
    return hashlib.blake2b(memoryview(arr).cast("B"), digest_size=16).digest()


def encode_gflop(image, weights, policy) -> float:
    """Matrix-product work of one encoder pass, computed from the shapes:
    2 x multiply-adds of patch embedding, q/k/v/out projections, attention
    logits (three self-similarity maps in a calibrated layer, one
    otherwise), attention-weighted values and the MLP."""
    d, heads, mlp, p = weights.dim, weights.heads, weights.mlp_dim, weights.patch_size
    patches = (image.shape[1] // p) * (image.shape[2] // p)
    t = patches + 1
    ds = d // heads
    modified = len(policy.modified_layers())
    intra = getattr(policy, "weights", None) is not None
    per_layer = 2 * t * d * d * 4 + 2 * 2 * t * d * mlp + heads * 2 * t * t * ds
    logits = heads * 2 * t * t * ds
    layers = len(weights.layers)
    total = 2 * patches * 3 * p * p * d + layers * (per_layer + logits)
    total += modified * logits * (2 if intra else 0)
    return total / 1e9


def _policy_key(policy) -> str:
    name = getattr(policy, "name", type(policy).__name__)
    return "biased" if name.endswith("_biased") else name


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _encode_enter(args, kwargs):
    image, weights, policy = (_arg(args, kwargs, i, n) for i, n in enumerate(("image", "weights", "policy")))
    relation = getattr(policy, "relation", None)
    key = (
        id(weights),
        _digest(image),
        _policy_key(policy),
        getattr(policy, "layers", None),
        tuple(getattr(policy, "weights", ()) or ()),
        None if relation is None else _digest(relation),
    )
    return {"key": key, "policy": _policy_key(policy), "gflop": encode_gflop(image, weights, policy)}


def _tensor_bytes(tensors) -> int:
    return sum(4 * int(getattr(arr, "size", 1)) for arr in tensors.values())


def _save_enter(args, kwargs):
    return {"bytes": _tensor_bytes(_arg(args, kwargs, 1, "tensors"))}


def _load_exit(attrs, result):
    attrs["bytes"] = _tensor_bytes(result.tensors)


def _fnv_enter(args, kwargs):
    return {"bytes": len(_arg(args, kwargs, 0, "data"))}


@dataclass(frozen=True)
class Target:
    span: str  # layer.function, as the metrics name it
    module: str  # module that defines the function
    attr: str
    sites: tuple = ()  # restrict to these lookup modules; empty = every binding
    enter: object = None  # (args, kwargs) -> attrs dict, before the call
    exit: object = None  # (attrs, result) -> None, after the call


TARGETS = [
    Target("fixtures.generate_fixtures", "excel.fixtures", "generate_fixtures"),
    *(
        Target(f"pipeline.stage_{s}", "excel.pipeline", f"stage_{s}")
        for s in ("attributes", "static", "train", "dynamic", "eval")
    ),
    Target("encoder.encode", "excel.encoder", "encode", enter=_encode_enter),
    Target("encoder.load_weights", "excel.encoder", "load_weights"),
    Target("numerics.matmul", "excel.numerics", "matmul"),
    *(
        Target(f"static_calibration.{f}", "excel.static_calibration", f)
        for f in ("run_static_pipeline", "static_cam", "cam_to_pseudo_label", "save_cams")
    ),
    *(
        Target(f"dynamic_calibration.{f}", "excel.dynamic_calibration", f)
        for f in ("dynamic_cam", "adapter_forward", "diversity_loss_gradient", "build_affinity_batch")
    ),
    *(
        Target(f"training_eval.{f}", "excel.training_eval", f)
        for f in (
            "train_loop",
            "seg_loss_gradient",
            "adamw_step",
            "save_checkpoint",
            "load_checkpoint",
            "write_loss_curve",
            "evaluate",
        )
    ),
    *(
        Target(f"text_enrichment.{f}", "excel.text_enrichment", f)
        for f in ("ingest_knowledge", "build_text_bank", "save_bank", "load_bank")
    ),
    Target("dataset.load_dataset", "excel.dataset", "load_dataset"),
    Target("blobio.load_tensors", "excel.blobio", "load_tensors", exit=_load_exit),
    Target("blobio.save_tensors", "excel.blobio", "save_tensors", enter=_save_enter),
    # the tensor-file checksum; Rng.child's seed derivation over short
    # strings (the numerics binding) is not tensor I/O and stays unwrapped
    Target("hashing.fnv1a64", "excel.hashing", "fnv1a64", sites=("excel.blobio",), enter=_fnv_enter),
]


def _import_package():
    import excel

    for info in pkgutil.iter_modules(excel.__path__, "excel."):
        if info.name != "excel.__main__":  # runs the CLI when imported
            importlib.import_module(info.name)


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    patched: list = field(default_factory=list)  # (module, attr, original)
    sites: dict = field(default_factory=dict)  # span name -> lookup modules

    def begin(self, name: str, attrs=None) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0, attrs])
        self.stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, target: Target, fn):
        begin, end, name = self.begin, self.end, target.span
        enter, exit_ = target.enter, target.exit

        def traced(*args, **kwargs):
            attrs = enter(args, kwargs) if enter else ({} if exit_ else None)
            idx = begin(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if exit_:
                exit_(attrs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        _import_package()
        for target in TARGETS:
            owner = sys.modules.get(target.module)
            original = getattr(owner, target.attr, None)
            if original is None:
                continue  # the function is gone from the package: no span
            wrapper = self._wrap(target, original)
            sites = [
                name
                for name, module in sorted(sys.modules.items())
                if (name == "excel" or name.startswith("excel."))
                and (not target.sites or name in target.sites)
                and module.__dict__.get(target.attr) is original
            ]
            for name in sites:
                setattr(sys.modules[name], target.attr, wrapper)
                self.patched.append((sys.modules[name], target.attr, original))
            self.sites[target.span] = sites

    def uninstall(self):
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched.clear()


def subtree(spans, root: int) -> list:
    """Indices of `root`'s descendants. Spans are appended in start order,
    so they are the contiguous run after `root` whose parents lie inside."""
    inside = {root}
    for idx in range(root + 1, len(spans)):
        if spans[idx][PARENT] not in inside:
            break
        inside.add(idx)
    return sorted(inside - {root})


def self_times(spans, indices) -> dict:
    """Span index -> duration minus the time its direct children cover."""
    own = {i: spans[i][END] - spans[i][START] for i in indices}
    for i in indices:
        parent = spans[i][PARENT]
        if parent in own:
            own[parent] -= spans[i][END] - spans[i][START]
    return own
