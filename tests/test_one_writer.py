"""One way to disk: `blobio.write_file` is the only function in `src/excel`
that writes a file or makes a directory, so every output lands whole
(see its docstring).

A function writes when its body calls a method that writes or makes a
file (`path.write_text`, `path.mkdir`, ...), one of the `os` functions
that rename or make one, or opens a file with a mode that writes,
appends or creates. A mode that is not a string literal counts as one
that writes. Module-level code outside any function is listed as
`<module>`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "excel"

# method names that write or make a file, whatever their receiver
WRITING_METHODS = {"write_text", "write_bytes", "mkdir"}
# `os.<name>` calls that rename or make a file
WRITING_OS_FUNCTIONS = {"replace", "rename", "makedirs", "mkdir"}


def _opens_for_writing(call: ast.Call) -> bool:
    """An `open(path, mode)` or `path.open(mode)` call whose mode writes."""
    if isinstance(call.func, ast.Name) and call.func.id == "open":
        position = 1
    elif isinstance(call.func, ast.Attribute) and call.func.attr == "open":
        position = 0
    else:
        return False
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None and len(call.args) > position:
        mode = call.args[position]
    if mode is None:
        return False
    literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
    return not literal or bool(set(mode.value) & set("wax+"))


def _writes(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in WRITING_METHODS:
            return True
        if isinstance(func.value, ast.Name) and func.value.id == "os" and func.attr in WRITING_OS_FUNCTIONS:
            return True
    return _opens_for_writing(call)


def _scopes(tree: ast.Module):
    """(name, node) of every module-level function, of every method as
    `Class.name`, and of each other module-level statement as `<module>`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                name = f"{node.name}.{item.name}" if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) else node.name
                yield name, item
        else:
            yield "<module>", node


def writers(source: str) -> set[str]:
    """The scopes of `source` with a call that writes."""
    return {
        name
        for name, node in _scopes(ast.parse(source))
        if any(isinstance(sub, ast.Call) and _writes(sub) for sub in ast.walk(node))
    }


def test_write_file_is_the_one_function_that_writes():
    found = {
        (path.stem, name) for path in sorted(SRC.glob("*.py")) for name in writers(path.read_text(encoding="utf-8"))
    }
    assert found == {("blobio", "write_file")}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f(p):\n    Path(p).write_text('x')", {"f"}),
        ("def f(p):\n    p.write_bytes(b'')", {"f"}),
        ("def f(p):\n    p.parent.mkdir(parents=True)", {"f"}),
        ("def f(p):\n    with open(p, 'w', newline='') as fh:\n        pass", {"f"}),
        ("def f(p):\n    open(p, mode='ab')", {"f"}),
        ("def f(p, mode):\n    open(p, mode)", {"f"}),
        ("def f(p):\n    p.open('r+b')", {"f"}),
        ("def f(p):\n    os.replace(p, p)", {"f"}),
        ("class C:\n    def save(self, p):\n        def inner():\n            p.write_text('')\n        inner()", {"C.save"}),
        ("Path('x').write_text('')", {"<module>"}),
        ("def f(p):\n    open(p)\n    open(p, 'rb')\n    p.open('rb')\n    p.read_text()\n    'a'.replace('a', 'b')", set()),
    ],
    ids=["write_text", "write_bytes", "mkdir", "open-w", "open-mode-kw", "open-mode-name", "path-open-rw",
         "os-replace", "nested", "module-level", "reads"],
)
def test_writer_detection(source, expected):
    # the check above finds each kind of write it claims to, and no read
    assert writers(source) == expected
