"""Every top-level function and class of the library is named somewhere in
the library, the demos or the benchmark code besides its own definition, so
code that only the tests reach does not stay in `src`."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ordertop"
SEARCHED = ("src", "demos", "perfbench", "bench")

# reached only by the tests today, and kept for a planned suite over maps
# (the arrow half of the core/fan isomorphism)
KEPT = {("morphcat", "map_profile"), ("morphcat", "lower_adjoint")}


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path, node.lineno, node.name


def test_every_top_level_definition_is_named_outside_the_tests():
    lines = {
        path: path.read_text(encoding="utf-8").splitlines()
        for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))
    }
    unnamed = []
    for path, lineno, name in _definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        named = any(
            word.search(line)
            for other, text in lines.items()
            for i, line in enumerate(text, 1)
            if (other, i) != (path, lineno)
        )
        if not named and (path.stem, name) not in KEPT:
            unnamed.append(f"{path.stem}.{name}")
    assert unnamed == []
