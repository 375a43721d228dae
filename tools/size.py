"""Print the size of ``src/hopf`` by one fixed rule; the numbers are on record, not a gate.

Lines are those that ``wc -l src/hopf/*.py`` counts. Settable values are the
function parameters other than ``self``, ``cls``, ``*args`` and ``**kwargs``,
plus the dataclass fields not marked ``init=False``.

usage: python tools/size.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hopf"


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            count += sum(p.arg not in ("self", "cls")
                         for p in a.posonlyargs + a.args + a.kwonlyargs)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) and "init=False" not in ast.unparse(s)
                         for s in node.body)
    return count


def main() -> None:
    paths = sorted(SRC.glob("*.py"))
    print("lines:", sum(path.read_bytes().count(b"\n") for path in paths))
    print("settable values:", sum(settable_values(ast.parse(path.read_text())) for path in paths))


if __name__ == "__main__":
    main()
