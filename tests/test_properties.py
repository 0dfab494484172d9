"""Property tests of the exit-code contract. A weights or knowledge
manifest, a config, a checkpoint's or a text bank's meta, a dataset's
`classes.json` or `labels.json`, or a PGM or PPM header mutated into an
invalid one makes `excel.cli.main` return 1, 2 or 3; no exception escapes
it. So does a finished run's file that `run --resume` reads, truncated.
Valid artifacts of different fixtures and runs, mixed in one command,
make it return 0, or 1, 2 or 3 with one error line."""

import contextlib
import dataclasses
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from excel.blobio import is_finite_number, is_positive_int
from excel.cli import main
from excel.config import PATH_KEYS, PipelineConfig
from excel.fixtures import FixtureSpec, generate_fixtures

PROPERTY = settings(derandomize=True, deadline=None, max_examples=50, database=None)
DELETE = "<delete>"
FAILED = {1, 2, 3}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**40), 2**40) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _other_than(value):
    """The key deleted, or any JSON value that differs from `value`."""
    return st.just(DELETE) | json_values.filter(lambda v: v != value)


def _set(container, key, value):
    if value is DELETE:
        container.pop(key, None)
    else:
        container[key] = value


def _exits_cleanly(argv) -> int:
    """Runs `main(argv)`: exit 0 with nothing on stderr, or exit 1, 2 or 3
    and exactly one `error:` line on stderr. Returns the exit code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    lines = err.getvalue().splitlines()
    clean = lines == [] if code == 0 else code in FAILED and len(lines) == 1 and lines[0].startswith("error: ")
    assert clean, (argv[0], code, lines)
    return code


def _fails_with_one_error_line(argv) -> int:
    """Runs `main(argv)`: exit 1, 2 or 3 and exactly one `error:` line on
    stderr. Returns the exit code."""
    code = _exits_cleanly(argv)
    assert code in FAILED, (argv[0], code)
    return code


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A 2-image, 32 px fixture tree (8 px patches) with a 16-dim encoder and its bank."""
    root = tmp_path_factory.mktemp("props")
    spec = FixtureSpec(classes=2, images=2, image_size=32, dim=16, heads=2, patch_size=8, mlp_dim=32)
    generate_fixtures(5, spec, root)
    (root / "attrs.json").write_text(json.dumps({"knowledge": "knowledge.json", "clusters": 4}))
    assert main(["build-attrs", "--config", str(root / "attrs.json"), "--out", str(root / "bank.json")]) == 0
    return root


# --------------------------------------------------------------------------
# weights manifest


def _weights_mutation(manifest):
    """[(where, key, value), ...]: edits that leave a required field with a
    value that cannot be valid."""
    meta, entries = manifest["meta"], manifest["tensors"]
    top = st.sampled_from(["format", "blob", "checksum_sha256", "tensors", "meta"]).flatmap(
        lambda k: st.tuples(st.just("top"), st.just(k), _other_than(manifest[k]))
    )
    provenance = st.tuples(st.just("top"), st.just("provenance"), json_values.filter(lambda v: not isinstance(v, dict)))
    counts = st.tuples(
        st.just("meta"),
        st.sampled_from(["dim", "heads", "layers", "patch_size", "mlp_dim"]),
        st.just(DELETE) | json_values.filter(lambda v: not is_positive_int(v)),
    )
    grid = st.tuples(st.just("meta"), st.just("grid"), _other_than(meta["grid"]))
    entry = st.tuples(st.integers(0, len(entries) - 1), st.sampled_from(["name", "shape", "offset"])).flatmap(
        lambda ik: st.tuples(st.just(ik[0]), st.just(ik[1]), _other_than(entries[ik[0]][ik[1]]))
    )
    # the v2 checksum moved under the v1 key, or the tag set to v1, or both
    to_v1_key = [("top", "checksum_sha256", DELETE), ("top", "checksum_fnv1a64", manifest["checksum_sha256"])]
    to_v1_tag = [("top", "format", "excel-tensors-v1")]
    v1 = st.sampled_from([to_v1_key, to_v1_tag, to_v1_key + to_v1_tag])
    return (top | provenance | counts | grid | entry).map(lambda edit: [edit]) | v1


@given(data=st.data())
@PROPERTY
def test_mutated_weights_manifest_fails_cleanly(small, data):
    manifest = json.loads((small / "encoder.json").read_text())
    for where, key, value in data.draw(_weights_mutation(manifest)):
        target = {"top": manifest, "meta": manifest["meta"]}.get(where) or manifest["tensors"][where]
        _set(target, key, value)
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(small / "encoder.bin", Path(tmp) / "encoder.bin")
        (Path(tmp) / "encoder.json").write_text(json.dumps(manifest))
        argv = [
            "cam", "--weights", str(Path(tmp) / "encoder.json"), "--bank", str(small / "bank.json"),
            "--image", str(small / "dataset" / "images" / "img_0000.ppm"), "--labels", "1",
            "--out", str(Path(tmp) / "out"),
        ]
        assert main(argv) in FAILED


# --------------------------------------------------------------------------
# config

_NOT_INT = json_values.filter(lambda v: type(v) is not int)
_NOT_NUMBER = json_values.filter(lambda v: type(v) not in (int, float))
_NOT_POSITIVE = st.integers(max_value=0) | st.floats(max_value=0.0)
_OUT_OF_RANGE = {
    "lr": _NOT_POSITIVE,
    "alpha": _NOT_POSITIVE,
    "batch_size": st.integers(max_value=0),
    "clusters": st.integers(max_value=-1),
    "iterations": st.integers(max_value=-1),
    "calib_layers": st.integers(max_value=-1) | st.integers(min_value=13),
    "fusion_kernel": st.integers().filter(lambda v: v not in (1, 3)),
    "tau_fg": st.floats(min_value=1.0, exclude_min=True) | st.floats(max_value=0.25),
}


_TYPES = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}


def _wrong_type(key):
    kind = _TYPES[key]
    if kind is int:
        return _NOT_INT
    if kind is float:
        return _NOT_NUMBER
    if kind is str:
        return json_values.filter(lambda v: not isinstance(v, str))
    return json_values.filter(lambda v: not (isinstance(v, list) and len(v) == 3))


_KNOWN = tuple(_TYPES)
_config_edits = (
    st.sampled_from(_KNOWN).flatmap(lambda k: st.tuples(st.just(k), _wrong_type(k)))
    | st.sampled_from(sorted(_OUT_OF_RANGE)).flatmap(lambda k: st.tuples(st.just(k), _OUT_OF_RANGE[k]))
    | st.tuples(st.sampled_from(PATH_KEYS), st.just(DELETE))
    | st.tuples(st.text(min_size=1, max_size=8).filter(lambda k: k not in _KNOWN), json_values)
)


@given(
    edit=_config_edits,
    raw=st.none() | st.binary(max_size=12) | json_values.filter(lambda v: not isinstance(v, dict)).map(json.dumps),
)
@PROPERTY
def test_mutated_config_fails_cleanly(small, edit, raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        if raw is None:
            mapping = {
                "weights": str(small / "encoder.json"),
                "knowledge": str(small / "knowledge.json"),
                "dataset": str(small / "dataset"),
                "out_dir": str(Path(tmp) / "out"),
                "clusters": 4,
            }
            _set(mapping, *edit)
            path.write_text(json.dumps(mapping))
        elif isinstance(raw, bytes):
            path.write_bytes(raw)  # any bytes: invalid JSON, or JSON without the paths
        else:
            path.write_text(raw)
        assert main(["run", "--config", str(path), "--mode", "static-only"]) in FAILED


# --------------------------------------------------------------------------
# checkpoint meta


@pytest.fixture(scope="module")
def small_checkpoint(small, tmp_path_factory):
    """(out_dir, final checkpoint) of a one-iteration full `excel run` on
    the small fixture, under the default calibration."""
    root = tmp_path_factory.mktemp("props-train")
    mapping = {
        "weights": str(small / "encoder.json"),
        "knowledge": str(small / "knowledge.json"),
        "dataset": str(small / "dataset"),
        "out_dir": str(root / "run"),
        "clusters": 4,
        "iterations": 1,
    }
    (root / "cfg.json").write_text(json.dumps(mapping))
    assert main(["run", "--config", str(root / "cfg.json")]) == 0
    return root / "run", root / "run" / "train" / "checkpoint_000001.json"


def _checkpoint_mutation(meta):
    """(key path in the meta, value): an edit that leaves a field the
    loaders read with a value that cannot be valid for the small fixture's
    weights and the default calibration, or deletes it."""
    not_finite = json_values.filter(lambda v: not is_finite_number(v))
    settings = meta["train_config"]
    return st.one_of(
        st.tuples(st.just(("train_config", "alpha")), st.just(DELETE) | _NOT_POSITIVE | not_finite),
        st.tuples(st.just(("train_config", "beta")), st.just(DELETE) | not_finite),
        *(st.tuples(st.just((key,)), _other_than(meta[key])) for key in ("dim", "train_config")),
        *(
            st.tuples(st.just(("train_config", key)), _other_than(settings[key]))
            for key in ("fusion_kernel", "d_proj", "d_dyn", "calib_layers", "calib_weights")
        ),
    )


@given(data=st.data())
@PROPERTY
def test_mutated_checkpoint_meta_fails_cleanly(small, small_checkpoint, data):
    out_dir, checkpoint = small_checkpoint
    manifest = json.loads(checkpoint.read_text())
    (*parents, key), value = data.draw(_checkpoint_mutation(manifest["meta"]))
    target = manifest["meta"]
    for parent in parents:
        target = target[parent]
    _set(target, key, value)
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(checkpoint.with_suffix(".bin"), Path(tmp) / manifest["blob"])
        bad = Path(tmp) / "checkpoint.json"
        bad.write_text(json.dumps(manifest))
        common = ["--weights", str(small / "encoder.json"), "--image", str(small / "dataset" / "images" / "img_0000.ppm"),
                  "--adapter", str(bad), "--out", str(Path(tmp) / "out")]
        for argv in (
            ["cam", "--mode", "dynamic", "--bank", str(out_dir / "attrs.json"), "--labels", "1", *common],
            ["attn-report", *common],
        ):
            _fails_with_one_error_line(argv)


# --------------------------------------------------------------------------
# text bank meta


def _bank_mutation(meta):
    """(key path in the meta, value): an edit that leaves a field
    `load_bank` reads with a value that cannot be valid for the small
    fixture's bank, or deletes it."""
    classes = meta["classes"]

    def names(v):
        return isinstance(v, list) and len(v) == len(classes) and all(isinstance(n, str) for n in v)

    return st.one_of(
        st.tuples(st.just(("classes",)), st.just(DELETE) | json_values.filter(lambda v: not names(v))),
        st.tuples(st.just(("dim",)), _other_than(meta["dim"])),
    )


@given(data=st.data())
@PROPERTY
def test_mutated_bank_meta_fails_cleanly(small, data):
    manifest = json.loads((small / "bank.json").read_text())
    (*parents, key), value = data.draw(_bank_mutation(manifest["meta"]))
    target = manifest["meta"]
    for parent in parents:
        target = target[parent]
    _set(target, key, value)
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(small / "bank.bin", Path(tmp) / manifest["blob"])
        (Path(tmp) / "bank.json").write_text(json.dumps(manifest))
        _fails_with_one_error_line(
            ["cam", "--weights", str(small / "encoder.json"), "--bank", str(Path(tmp) / "bank.json"),
             "--image", str(small / "dataset" / "images" / "img_0000.ppm"), "--labels", "1",
             "--out", str(Path(tmp) / "out")]
        )


# --------------------------------------------------------------------------
# knowledge manifest


def _knowledge_mutation(manifest):
    """(where, key, value): the meta `classes`, `n` or `dim` deleted or made
    another JSON value, or a `template.NN`/`descriptions.NN` entry renamed
    or reshaped. The run's dataset pins the classes, so no edit is valid."""
    meta, entries = manifest["meta"], manifest["tensors"]
    names = [entry["name"] for entry in entries]

    def other(where, key, value, near):
        """`value` deleted or made another JSON value, often one `near` it."""
        return st.tuples(st.just(where), st.just(key), (near | _other_than(value)).filter(lambda v: v != value))

    def reshaped(i):
        shape = entries[i]["shape"]
        size = math.prod(shape)
        same_size = st.sampled_from([[size], [1, size], [size, 1], shape[::-1], [*shape, 1]])
        return other(i, "shape", shape, same_size | st.lists(st.integers(0, 40), max_size=3))

    renames = [*names, "template.02", "descriptions.02", "template.0"]
    return st.one_of(
        other("meta", "classes", meta["classes"], st.lists(st.sampled_from([*meta["classes"], "blue"]), max_size=3)),
        other("meta", "n", meta["n"], st.integers(0, 40)),
        other("meta", "dim", meta["dim"], st.integers(0, 40)),
        st.integers(0, len(entries) - 1).flatmap(lambda i: other(i, "name", names[i], st.sampled_from(renames))),
        st.integers(0, len(entries) - 1).flatmap(reshaped),
    )


@given(data=st.data())
@PROPERTY
def test_mutated_knowledge_manifest_fails_cleanly(small, data):
    manifest = json.loads((small / "knowledge.json").read_text())
    where, key, value = data.draw(_knowledge_mutation(manifest))
    _set(manifest["meta"] if where == "meta" else manifest["tensors"][where], key, value)
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(small / "knowledge.bin", Path(tmp) / manifest["blob"])
        (Path(tmp) / "knowledge.json").write_text(json.dumps(manifest))
        mapping = {
            "weights": str(small / "encoder.json"),
            "knowledge": str(Path(tmp) / "knowledge.json"),
            "dataset": str(small / "dataset"),
            "out_dir": str(Path(tmp) / "out"),
            "clusters": 4,
        }
        (Path(tmp) / "cfg.json").write_text(json.dumps(mapping))
        _fails_with_one_error_line(["run", "--config", str(Path(tmp) / "cfg.json"), "--mode", "static-only"])


# --------------------------------------------------------------------------
# classes.json and labels.json

_NOT_JSON_OBJECT = st.binary(max_size=12) | json_values.filter(lambda v: not isinstance(v, dict)).map(json.dumps)


def _is_class_list(value) -> bool:
    """A `classes.json` list `excel eval` accepts for masks with labels up to 2."""
    names = isinstance(value, list) and all(isinstance(n, str) for n in value)
    return names and len(value) >= 3 and value[0] == "background"


# the whole file, or its "classes" list deleted or made one that cannot be
# valid: every edit fails `excel run`, whose bank has the fixture's classes
_classes_edits = _NOT_JSON_OBJECT | st.one_of(
    st.just(DELETE),
    json_values.filter(lambda v: not _is_class_list(v)),
    st.lists(st.text(max_size=6), max_size=1).map(lambda rest: ["background", *rest]),
    st.lists(st.text(max_size=6), min_size=3, max_size=4).filter(lambda v: v[0] != "background"),
).map(lambda v: json.dumps({} if v is DELETE else {"classes": v}))


def _dataset_with(small, tmp, name: str, text) -> Path:
    """A copy of the small fixture's dataset under `tmp` whose file `name`
    holds `text` (bytes or str); returns a config running on it."""
    root = Path(tmp) / "dataset"
    shutil.copytree(small / "dataset", root)
    (root / name).write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    config = Path(tmp) / "cfg.json"
    mapping = {
        "weights": str(small / "encoder.json"),
        "knowledge": str(small / "knowledge.json"),
        "dataset": str(root),
        "out_dir": str(Path(tmp) / "out"),
        "clusters": 4,
    }
    config.write_text(json.dumps(mapping))
    return config


@given(text=_classes_edits)
@PROPERTY
def test_mutated_classes_json_fails_cleanly(small, text):
    with tempfile.TemporaryDirectory() as tmp:
        config = _dataset_with(small, tmp, "classes.json", text)
        _fails_with_one_error_line(["run", "--config", str(config), "--mode", "static-only"])
        masks = str(small / "dataset" / "masks")
        _fails_with_one_error_line(
            ["eval", "--pred-dir", masks, "--gt-dir", masks, "--classes", str(Path(tmp) / "dataset" / "classes.json")]
        )


def _labels_edit(table):
    """The whole `labels.json`, or one image's entry deleted or made a
    value whose ids are not the ones in its mask, or an entry added for an
    image the dataset lacks."""
    stems = sorted(table)
    wrong = st.sampled_from(stems).flatmap(
        lambda stem: st.tuples(
            st.just(stem),
            st.just(DELETE)
            | json_values.filter(
                lambda v: not (isinstance(v, list) and all(type(i) is int for i in v) and set(v) == set(table[stem]))
            ),
        )
    )
    extra = st.tuples(st.text(min_size=1, max_size=8).filter(lambda k: k not in table), json_values)

    def edited(edit):
        changed = dict(table)
        _set(changed, *edit)
        return json.dumps(changed)

    return _NOT_JSON_OBJECT | (wrong | extra).map(edited)


@given(data=st.data())
@PROPERTY
def test_mutated_labels_json_fails_cleanly(small, data):
    text = data.draw(_labels_edit(json.loads((small / "dataset" / "labels.json").read_text())))
    with tempfile.TemporaryDirectory() as tmp:
        config = _dataset_with(small, tmp, "labels.json", text)
        _fails_with_one_error_line(["run", "--config", str(config), "--mode", "static-only"])


# --------------------------------------------------------------------------
# truncated artifacts on resume

# the files of a finished one-iteration run that `run --resume` reads: the
# report's and the bank's stamps, the bank, the final checkpoint
_RESUMED = ("report.json", "attrs.json", "attrs.bin", "train/checkpoint_000001.json", "train/checkpoint_000001.bin")


@pytest.fixture(scope="module")
def small_run(small, tmp_path_factory):
    """The output tree of a finished one-iteration full run on the small fixture."""
    root = tmp_path_factory.mktemp("props-run")
    mapping = {
        "weights": str(small / "encoder.json"),
        "knowledge": str(small / "knowledge.json"),
        "dataset": str(small / "dataset"),
        "out_dir": str(root / "run"),
        "clusters": 4,
        "iterations": 1,
    }
    (root / "cfg.json").write_text(json.dumps(mapping))
    assert main(["run", "--config", str(root / "cfg.json")]) == 0
    return root / "run"


@given(name=st.sampled_from(_RESUMED), cut=st.floats(0, 1, exclude_max=True))
@settings(PROPERTY, max_examples=25)
def test_truncated_artifact_fails_resume_cleanly(small, small_run, name, cut):
    # a JSON file cut anywhere before its closing brace (its trailing
    # newline alone would still parse), a blob short by at least one byte
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(small_run, out)
        data = (out / name).read_bytes()
        keep = len(data) - 1 if name.endswith(".json") else len(data)
        (out / name).write_bytes(data[: int(cut * keep)])
        mapping = json.loads((small_run.parent / "cfg.json").read_text())
        (Path(tmp) / "cfg.json").write_text(json.dumps({**mapping, "out_dir": str(out)}))
        assert _fails_with_one_error_line(["run", "--config", str(Path(tmp) / "cfg.json"), "--resume"]) in (1, 2)


# --------------------------------------------------------------------------
# PGM and PPM headers


def _as_int(token: bytes):
    try:
        return int(token)
    except ValueError:
        return None


def _token_other_than(value: int):
    """A header field that is not `value`: another integer, or no integer."""
    free = st.binary(min_size=1, max_size=6).filter(lambda b: not any(c in b for c in b" \t\n\r\v\f#"))
    return free.filter(lambda b: _as_int(b) != value)


def _mutated_netpbm(data, magic: bytes, size: int, payload: bytes) -> bytes:
    """A `size` x `size` binary PGM or PPM holding `payload`, drawn from
    `data` with one part made invalid: its magic, width, height or maxval
    token, its length cut inside the header, or its payload grown or cut."""
    parts = {"magic": magic, "width": b"%d" % size, "height": b"%d" % size, "maxval": b"255"}
    header = b"%s\n# stamp\n%d %d\n255\n" % (magic, size, size)
    field = data.draw(st.sampled_from(["magic", "width", "height", "maxval", "truncate", "payload"]))
    if field == "magic":
        parts["magic"] = data.draw(st.binary(max_size=3).filter(lambda b: not b.startswith(magic)))
    elif field in ("width", "height", "maxval"):
        parts[field] = data.draw(_token_other_than(int(parts[field])))
    elif field == "payload":
        grown = st.binary(min_size=1, max_size=4).map(lambda extra: payload + extra)
        payload = data.draw(grown | st.integers(1, len(payload)).map(lambda k: payload[:-k]))
    body = b"%s\n# stamp\n%s %s\n%s\n" % (parts["magic"], parts["width"], parts["height"], parts["maxval"]) + payload
    if field == "truncate":
        body = body[: data.draw(st.integers(0, len(header) - 1))]
    return body


def _netpbm_payload(path) -> bytes:
    data = path.read_bytes()
    return data[data.index(b"\n255\n") + 5 :]


@given(data=st.data())
@PROPERTY
def test_mutated_pgm_header_fails_cleanly(small, data):
    payload = _netpbm_payload(small / "dataset" / "masks" / "img_0000.pgm")
    assert len(payload) == 32 * 32
    body = _mutated_netpbm(data, b"P5", 32, payload)
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(small / "dataset" / "masks", Path(tmp) / "pred")
        (Path(tmp) / "pred" / "img_0000.pgm").write_bytes(body)
        argv = ["eval", "--pred-dir", str(Path(tmp) / "pred"), "--gt-dir", str(small / "dataset" / "masks"),
                "--classes", str(small / "dataset" / "classes.json")]
        assert main(argv) in FAILED


@given(data=st.data())
@PROPERTY
def test_mutated_ppm_header_fails_cleanly(small, data):
    # a dataset image made invalid: `cam` and `attn-report` given it as
    # --image, and a static-only run over a dataset that holds it
    payload = _netpbm_payload(small / "dataset" / "images" / "img_0000.ppm")
    assert len(payload) == 32 * 32 * 3
    body = _mutated_netpbm(data, b"P6", 32, payload)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(small / "dataset", tmp / "dataset")
        bad = tmp / "dataset" / "images" / "img_0000.ppm"
        bad.write_bytes(body)
        mapping = {
            "weights": str(small / "encoder.json"),
            "knowledge": str(small / "knowledge.json"),
            "dataset": str(tmp / "dataset"),
            "out_dir": str(tmp / "run"),
            "clusters": 4,
        }
        (tmp / "cfg.json").write_text(json.dumps(mapping))
        common = ["--weights", str(small / "encoder.json"), "--image", str(bad)]
        for argv in (
            ["cam", "--bank", str(small / "bank.json"), "--labels", "1", *common, "--out", str(tmp / "cam")],
            ["attn-report", *common, "--out", str(tmp / "attn")],
            ["run", "--config", str(tmp / "cfg.json"), "--mode", "static-only"],
        ):
            _fails_with_one_error_line(argv)


# --------------------------------------------------------------------------
# artifacts of different fixtures and runs, mixed

# fixture trees, each off the first in one way: the encoder width, the grid
# (8x8 at 128 px), or the seed every input is drawn under
_MIX_FIXTURES = {
    "base": (5, FixtureSpec(classes=2, images=2)),
    "dim32": (5, FixtureSpec(classes=2, images=2, dim=32, heads=2)),
    "grid8": (5, FixtureSpec(classes=2, images=2, image_size=128)),
    "seed6": (6, FixtureSpec(classes=2, images=2)),
}
# a finished one-iteration run per fixture, and one more on the first
# fixture with a 3x3 fusion kernel: (fixture, config settings)
_MIX_RUNS = {name: (name, {}) for name in _MIX_FIXTURES} | {"kernel3": ("base", {"fusion_kernel": 3})}
_FIXTURE = st.sampled_from(sorted(_MIX_FIXTURES))
_RUN = st.sampled_from(sorted(_MIX_RUNS))


def _mix_config(root: Path, weights: str, knowledge: str, dataset: str, run: str, out_dir: Path) -> dict:
    """A run's config reading the inputs of the three named fixtures under
    `root`, with the settings of the run named `run`."""
    return {
        "weights": str(root / weights / "encoder.json"),
        "knowledge": str(root / knowledge / "knowledge.json"),
        "dataset": str(root / dataset / "dataset"),
        "out_dir": str(out_dir),
        "clusters": 4,
        "iterations": 1,
        **_MIX_RUNS[run][1],
    }


def _one_source(fixtures, runs) -> bool:
    """True when every artifact comes from one run and the fixture it ran on."""
    return len(set(runs)) <= 1 and len({*fixtures, *(_MIX_RUNS[run][0] for run in runs)}) == 1


@pytest.fixture(scope="module")
def mixed(tmp_path_factory):
    """A root holding each fixture tree under its name, each run's config
    as `<run>.json` and its output tree under `runs/<run>`."""
    root = tmp_path_factory.mktemp("props-mixed")
    for name, (seed, spec) in _MIX_FIXTURES.items():
        generate_fixtures(seed, spec, root / name)
    for name, (fixture, _) in _MIX_RUNS.items():
        mapping = _mix_config(root, fixture, fixture, fixture, name, root / "runs" / name)
        (root / f"{name}.json").write_text(json.dumps(mapping))
        assert main(["run", "--config", str(root / f"{name}.json")]) == 0
    return root


@given(weights=_FIXTURE, image=_FIXTURE, bank=_RUN, adapter=_RUN, config=_RUN, mode=st.sampled_from(["static", "dynamic"]))
@example(weights="grid8", image="grid8", bank="grid8", adapter="grid8", config="grid8", mode="dynamic")
@settings(PROPERTY, max_examples=30)
def test_mixed_artifacts_in_cam_exit_cleanly(mixed, weights, image, bank, adapter, config, mode):
    # static mode refuses an --adapter, so only a dynamic request names one
    runs = [bank, config, adapter] if mode == "dynamic" else [bank, config]
    adapter_flag = ["--adapter", str(mixed / "runs" / adapter / "train" / "checkpoint_000001.json")]
    with tempfile.TemporaryDirectory() as tmp:
        code = _exits_cleanly(
            [
                "cam", "--mode", mode, "--weights", str(mixed / weights / "encoder.json"),
                "--bank", str(mixed / "runs" / bank / "attrs.json"),
                "--image", str(mixed / image / "dataset" / "images" / "img_0000.ppm"), "--labels", "1",
                *(adapter_flag if mode == "dynamic" else []),
                "--config", str(mixed / f"{config}.json"), "--out", tmp,
            ]
        )
    if _one_source([weights, image], runs):
        assert code == 0


@given(weights=_FIXTURE, image=_FIXTURE, adapter=_RUN, config=_RUN)
@example(weights="dim32", image="dim32", adapter="dim32", config="dim32")
@settings(PROPERTY, max_examples=20)
def test_mixed_artifacts_in_attn_report_exit_cleanly(mixed, weights, image, adapter, config):
    with tempfile.TemporaryDirectory() as tmp:
        code = _exits_cleanly(
            [
                "attn-report", "--weights", str(mixed / weights / "encoder.json"),
                "--image", str(mixed / image / "dataset" / "images" / "img_0001.ppm"),
                "--adapter", str(mixed / "runs" / adapter / "train" / "checkpoint_000001.json"),
                "--config", str(mixed / f"{config}.json"), "--out", tmp,
            ]
        )
    if _one_source([weights, image], [adapter, config]):
        assert code == 0


@given(pred=_RUN, stage=st.sampled_from(["static", "dynamic"]), gt=_FIXTURE, classes=_FIXTURE)
@example(pred="seed6", stage="static", gt="seed6", classes="seed6")
@settings(PROPERTY, max_examples=30)
def test_mixed_artifacts_in_eval_exit_cleanly(mixed, pred, stage, gt, classes):
    code = _exits_cleanly(
        [
            "eval", "--pred-dir", str(mixed / "runs" / pred / stage), "--gt-dir", str(mixed / gt / "dataset" / "masks"),
            "--classes", str(mixed / classes / "dataset" / "classes.json"),
        ]
    )
    if _one_source([gt, classes], [pred]):
        assert code == 0


@given(tree=_RUN, weights=_FIXTURE, knowledge=_FIXTURE, dataset=_FIXTURE, config=_RUN)
@example(tree="kernel3", weights="base", knowledge="base", dataset="base", config="kernel3")
@settings(PROPERTY, max_examples=30)
def test_mixed_artifacts_in_resume_exit_cleanly(mixed, tree, weights, knowledge, dataset, config):
    # a run resumed over a finished run's tree, with inputs and settings
    # drawn from other fixtures and runs
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        shutil.copytree(mixed / "runs" / tree, out)
        mapping = _mix_config(mixed, weights, knowledge, dataset, config, out)
        (Path(tmp) / "cfg.json").write_text(json.dumps(mapping))
        code = _exits_cleanly(["run", "--config", str(Path(tmp) / "cfg.json"), "--resume"])
    if _one_source([weights, knowledge, dataset], [tree, config]):
        assert code == 0
