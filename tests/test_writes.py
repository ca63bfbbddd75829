"""Every file the package writes is opened by `signal._open_new`, which
unlinks a regular file before it writes, so the rule has one home."""

import ast
from pathlib import Path

import convsep

SOURCES = sorted(Path(convsep.__file__).parent.glob("*.py"))


def _name(call: ast.Call):
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)


def _writes(call: ast.Call) -> bool:
    """Whether an open call asks for a write mode (a non-literal mode counts)."""
    position = 1 if isinstance(call.func, ast.Name) else 0  # open(path, mode) / p.open(mode)
    given = call.args[position : position + 1] + [k.value for k in call.keywords if k.arg == "mode"]
    if not given:
        return False
    mode = given[0].value if isinstance(given[0], ast.Constant) else "w"
    return not isinstance(mode, str) or bool(set(mode) & set("wax+"))


def stray_writes(source: str, filename: str) -> list:
    """file:line of each write-mode open outside the helper, each
    .write_text/.write_bytes, and each .tofile not on a handle that an
    enclosing `with _open_new(...) as handle` opened."""
    tree = ast.parse(source)
    in_helper, handles = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and (filename, node.name) == ("signal.py", "_open_new"):
            in_helper |= {id(inner) for inner in ast.walk(node)}
        if isinstance(node, ast.With):
            for item in node.items:
                call, handle = item.context_expr, item.optional_vars
                if isinstance(call, ast.Call) and _name(call) == "_open_new" and isinstance(handle, ast.Name):
                    for inner in ast.walk(node):
                        handles.setdefault(id(inner), set()).add(handle.id)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _name(node)
        if name == "open":
            stray = _writes(node) and id(node) not in in_helper
        elif name == "tofile":
            target = node.args[0] if node.args else None
            stray = not (isinstance(target, ast.Name) and target.id in handles.get(id(node), ()))
        else:
            stray = name in ("write_text", "write_bytes")
        if stray:
            found.append(f"{filename}:{node.lineno}")
    return sorted(found, key=lambda line: int(line.rsplit(":", 1)[1]))


def test_every_write_goes_through_the_helper():
    found = [
        line
        for path in SOURCES
        for line in stray_writes(path.read_text(encoding="utf-8"), path.name)
    ]
    assert found == []


def test_guard_flags_writes_that_bypass_the_helper():
    source = (
        "def write(path, arr):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write('x')\n"
        "    arr.tofile(path)\n"
        "    Path(path).open(mode='ab')\n"
        "    Path(path).write_text('x')\n"
        "    with _open_new(path, 'wb') as fh:\n"
        "        arr.tofile(fh)\n"
        "        arr.tofile(path)\n"
        "    open(path).read()\n"
    )
    assert stray_writes(source, "metrics.py") == [
        "metrics.py:2", "metrics.py:4", "metrics.py:5", "metrics.py:6", "metrics.py:9",
    ]
