"""No function of the library calls itself by name. Every walk over terms,
layered forms, JSON and count tables keeps its own stack, so how deep an input
nests never meets Python's recursion limit."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qnets"


def _self_calls(path: pathlib.Path) -> list[str]:
    """``file:line name`` of each call, inside a function, of that same
    function by its plain name or as a method of ``self`` or ``cls``."""
    found = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                name = f.id
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id in ("self", "cls")):
                name = f.attr
            else:
                continue
            if name == fn.name:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_no_function_in_the_library_calls_itself():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    assert [call for path in files for call in _self_calls(path)] == []


def test_the_check_sees_a_self_call(tmp_path):
    path = tmp_path / "walker.py"
    path.write_text("def outer(t):\n"
                    "    def walk(t):\n"
                    "        return [walk(a) for a in t]\n"
                    "    return walk(t)\n\n"
                    "class C:\n"
                    "    def go(self, n):\n"
                    "        return self.go(n - 1) if n else 0\n", encoding="utf-8")
    assert _self_calls(path) == ["walker.py:3 walk", "walker.py:8 go"]
