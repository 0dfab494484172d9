"""Every module-level function and method in `src/excel` has a caller in
`src/excel`, or is on ALLOWED: a function only tests reach is a second
spelling the package does not need.

A module-level function is called when a module reads it by the name it
is defined or imported under, or as an attribute of a module alias
(`nm.as_f32`); `np.matmul` does not call `numerics.matmul`. A method
cannot be resolved without types, so it counts as called when any
attribute of its name is read. Dunder methods are called implicitly.

Every field of a `@dataclass` is read in `src/excel`, or is on
ALLOWED_FIELDS: state that nothing reads is state to delete. As for a
method, a field counts as read when any attribute of its name is read.

Every defaulted parameter of a module-level function or method is passed
by some call in `src/excel`, or is on ALLOWED_PARAMS: a default no caller
overrides is a knob only tests turn. A call passes a parameter by its
keyword, or by position when it has more positional arguments than the
parameters before it, a method's `self` not counted; a `*args` or
`**kwargs` argument passes every parameter. Calls resolve to functions
as above, a method's by the attribute name alone.
"""

import ast
import math
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "excel"

# functions with no caller in the package, each kept on purpose
ALLOWED = {
    # the declared per-row attention sums of a policy, the contract every
    # encoded map is checked against
    ("encoder", "expected_row_sums"),
    # the loss alone, the exact function the analytic gradient
    # differentiates: criterion 3's finite-difference oracle calls it
    ("dynamic_calibration", "adapter_diversity_loss"),
    # argparse calls it on a bad command line, to raise a usage error
    ("cli", "_Parser.error"),
}

# dataclass fields nothing in the package reads, each kept on purpose
ALLOWED_FIELDS = {
    # the k-means state cluster_attributes computes anyway: criterion 4 and
    # the clustering tests check the assignment, objective, inertia and the
    # member means the centroids are normalized from
    ("text_enrichment", "AttributeSpace.assignment"),
    ("text_enrichment", "AttributeSpace.inertia"),
    ("text_enrichment", "AttributeSpace.objective_history"),
    ("text_enrichment", "AttributeSpace.raw_centroids"),
    # a loaded file's stamp, which tests carry into the copies they re-save
    ("blobio", "TensorFile.provenance"),
}

# defaulted parameters no call in the package passes, each kept on purpose;
# a setting of the package is a config key or a flag, which a run reaches,
# so the one entry is the argv that tests and the benchmark hand the CLI
ALLOWED_PARAMS = {
    ("cli", "main", "argv"),
}


def _bindings(tree, module):
    """(names, aliases) of a module: local name -> (module, name) of each
    function it defines or imports from the package; local name -> module
    of each package module it imports."""
    names, aliases = {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names[node.name] = (module, node.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    aliases[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    return names, aliases


def _definitions_and_calls():
    """(defined, called): the (module, name) of every module-level
    function and the (module, class, name) of every method; the
    (module, name) of every function read, and the name of every
    attribute read."""
    defined, called, attributes = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, aliases = _bindings(tree, module)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add((module, node.name))
            elif isinstance(node, ast.ClassDef):
                defined.update(
                    (module, node.name, item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in names:
                called.add(names[node.id])
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    called.add((aliases[node.value.id], node.attr))
    return defined, called, attributes


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether a class is decorated `@dataclass`, with or without arguments."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
        if name == "dataclass":
            return True
    return False


def _fields_and_reads():
    """(fields, read): the (module, class, name) of every annotated field
    of a `@dataclass` class, and the name of every attribute loaded."""
    fields, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields.update(
                    (path.stem, node.name, item.target.id)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                )
        read.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    return fields, read


def _unread_fields():
    fields, read = _fields_and_reads()
    return {(module, f"{cls}.{name}") for module, cls, name in fields if name not in read}


def _uncalled():
    defined, called, attributes = _definitions_and_calls()
    functions = {d for d in defined if len(d) == 2 and d not in called}
    methods = {
        d for d in defined if len(d) == 3 and d[2] not in attributes and not (d[2].startswith("__") and d[2].endswith("__"))
    }
    return functions | {(module, f"{cls}.{name}") for module, cls, name in methods}


def _defaulted(function: ast.FunctionDef, method: bool):
    """(position, name) of each parameter of `function` with a default;
    the position counts from the first argument a call gives, after a
    method's `self`, and is None for a keyword-only parameter."""
    args = function.args
    positional = args.posonlyargs + args.args
    skip = int(method and not any(getattr(d, "id", None) == "staticmethod" for d in function.decorator_list))
    first = len(positional) - len(args.defaults)
    params = [(i - skip, arg.arg) for i, arg in enumerate(positional) if i >= first]
    params += [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return params


def _unpassed_params():
    """(module, function, parameter) of every defaulted parameter that no
    call in the package passes; a method's function is `Class.name`."""
    params, passed = [], {}  # callee key -> [(positional count, keywords)]
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names, aliases = _bindings(tree, module)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params += [(module, node.name, (module, node.name), p) for p in _defaulted(node, False)]
            elif isinstance(node, ast.ClassDef):
                params += [
                    (module, f"{node.name}.{item.name}", item.name, p)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for p in _defaulted(item, True)
                ]
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name) and func.id in names:
                key = names[func.id]
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in aliases:
                key = (aliases[func.value.id], func.attr)
            elif isinstance(func, ast.Attribute):
                key = func.attr  # a method, by its name alone
            else:
                continue
            star = any(isinstance(arg, ast.Starred) for arg in call.args)
            count = math.inf if star else len(call.args)
            keywords = {kw.arg for kw in call.keywords}
            passed.setdefault(key, []).append((count, keywords))
    unpassed = set()
    for module, function, key, (position, name) in params:
        calls = passed.get(key, [])
        if not any(name in kws or None in kws or (position is not None and count > position) for count, kws in calls):
            unpassed.add((module, function, name))
    return unpassed


def test_every_function_has_a_caller_in_the_package():
    defined, _, _ = _definitions_and_calls()
    assert ("encoder", "encode_stack") in defined and ("encoder", "AttentionWork", "of") in defined
    assert _uncalled() - ALLOWED == set()


def test_every_allowed_function_exists_without_a_caller():
    # an entry whose function gained a caller, or is gone, leaves the list
    assert ALLOWED - _uncalled() == set()


def test_every_dataclass_field_is_read_in_the_package():
    fields, _ = _fields_and_reads()
    assert ("static_calibration", "CamResult", "trace") in fields and ("config", "PipelineConfig", "seed") in fields
    assert _unread_fields() - ALLOWED_FIELDS == set()


def test_every_allowed_field_exists_unread():
    # an entry whose field gained a reader, or is gone, leaves the list
    assert ALLOWED_FIELDS - _unread_fields() == set()


def test_every_defaulted_parameter_is_passed_in_the_package():
    assert _unpassed_params() - ALLOWED_PARAMS == set()


def test_every_allowed_parameter_exists_unpassed():
    # an entry whose parameter gained a caller, or is gone, leaves the list
    assert ALLOWED_PARAMS - _unpassed_params() == set()


def test_a_method_counts_its_positional_arguments_without_self():
    # `tf.require(name, shape)` passes `shape`; a static method has no self
    source = """
class T:
    def require(self, name, shape=None, *, strict=False): ...
    @staticmethod
    def make(name, shape=None): ...
"""
    require, make = ast.parse(source).body[0].body
    assert _defaulted(require, True) == [(1, "shape"), (None, "strict")]
    assert _defaulted(make, True) == [(1, "shape")]
    assert ("blobio", "TensorFile.require", "shape") not in _unpassed_params()
