"""Every top-level function and class of the library, and every method and
property of its classes, is read by the code of the library, the demos or
the benchmark code outside its own definition, so code that only the tests
reach does not stay in `src`.  Only code counts: names, imports and
attribute accesses, not comments, docstrings or other strings.  A method or
property is read only by an attribute access of its name."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ordertop"
SEARCHED = ("src", "demos", "perfbench", "bench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# reached only by the tests today, and kept for a planned suite over maps
# (the arrow half of the core/fan isomorphism)
KEPT = {("morphcat", "map_profile"), ("morphcat", "lower_adjoint")}


def _docstring(node):
    body = getattr(node, "body", None)
    if (
        isinstance(body, list) and body and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        return body[0]
    return None


def _uses(node, owners=()):
    """(word, is_attribute, owners) for every word the code under `node`
    reads, with the definitions it is read in."""
    if isinstance(node, DEFINITIONS):
        owners = (*owners, node)
    doc = _docstring(node)
    for child in ast.iter_child_nodes(node):
        if child is not doc:
            yield from _uses(child, owners)
    if isinstance(node, ast.Name):
        yield node.id, False, owners
    elif isinstance(node, ast.alias):
        yield node.name.rpartition(".")[2], False, owners
    elif isinstance(node, ast.Attribute):
        yield node.attr, True, owners


def _trees():
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for top in SEARCHED for path in sorted((ROOT / top).rglob("*.py"))
    }


def _definitions(trees):
    """(module, qualified name, name, node, member) for every top-level
    function and class of the package and every method of its classes,
    dunder methods aside."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, DEFINITIONS):
                continue
            yield path.stem, node.name, node.name, node, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, DEFINITIONS) \
                            and not member.name.startswith("__"):
                        qual = f"{node.name}.{member.name}"
                        yield path.stem, qual, member.name, member, True


def test_every_definition_is_read_outside_the_tests():
    trees = _trees()
    uses = {}
    for tree in trees.values():
        for word, is_attribute, owners in _uses(tree):
            uses.setdefault(word, []).append((is_attribute, owners))
    unread = []
    for module, qual, name, node, member in _definitions(trees):
        read = any(
            (is_attribute or not member) and node not in owners
            for is_attribute, owners in uses.get(name, ())
        )
        if not read and (module, qual) not in KEPT:
            unread.append(f"{module}.{qual}")
    assert unread == []


def test_comments_docstrings_and_own_bodies_do_not_read():
    tree = ast.parse(
        '"""dead"""\n'
        "def dead():\n"
        '    """dead"""\n'
        "    return dead()  # dead\n"
        "def live():\n"
        "    return pair, self.top\n"
    )
    dead = tree.body[1]
    read = [(word, attr) for word, attr, owners in _uses(tree) if dead not in owners]
    assert read == [("pair", False), ("self", False), ("top", True)]
