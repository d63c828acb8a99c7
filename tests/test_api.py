"""Public-symbol gate: every public name in `src/authpsi` has a user outside the tests.

A public name is a top-level function, class or constant of a module, or a
method of a public class, whose name does not start with an underscore.
Click commands are reached through the CLI and are skipped. A name counts as
used when code outside `tests/` refers to it:

- its own module, by the bare name;
- any module under `src/`, `bench/` or `tools/`, as `module.name` or through
  `from ...module import name`;
- `bench/` or `tools/`, as the string "name" or "Class.method" (the tracer
  wraps its targets by name);
- `pyproject.toml`, as `authpsi.module:name` or `authpsi.module.name`.

A method counts as used by any attribute access of its name, since the
receiver's class is not known statically.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "authpsi"
USER_DIRS = (PACKAGE, ROOT / "bench", ROOT / "tools")

# The names that stay public although only tests use them, each with its reason.
ALLOWED = {
    # how a test learns the port of a listener bound to port 0 before it
    # points peers at it; a process started by the CLI is given its port
    "transport.TcpNode.bound_port",
}


def _public(name):
    return not name.startswith("_")


def _is_click_command(node):
    return any(".command" in ast.unparse(d) or ".group" in ast.unparse(d)
               for d in node.decorator_list)


def _definitions():
    """'module.name' or 'module.Class.method' of every public definition under src/."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, functions):
                if _public(node.name) and not _is_click_command(node):
                    yield f"{module}.{node.name}"
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                yield f"{module}.{node.name}"
                yield from (f"{module}.{node.name}.{item.name}" for item in node.body
                            if isinstance(item, functions) and _public(item.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                yield from (f"{module}.{t.id}" for t in targets
                            if isinstance(t, ast.Name) and _public(t.id))


class _Uses:
    """What the code outside tests/ refers to."""

    def __init__(self):
        self.local = {}         # src module -> bare names it loads
        self.qualified = set()  # (module, name): `module.name` or `from ...module import name`
        self.attributes = set()
        self.strings = set()    # string constants under bench/ and tools/
        for base in USER_DIRS:
            for path in sorted(base.rglob("*.py")):
                self._scan(path, in_package=base == PACKAGE)
        self.pyproject = (ROOT / "pyproject.toml").read_text()

    def _scan(self, path, in_package):
        names = self.local.setdefault(path.stem, set()) if in_package else set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                self.attributes.add(node.attr)
                base = node.value
                if isinstance(base, (ast.Name, ast.Attribute)):
                    self.qualified.add((base.id if isinstance(base, ast.Name) else base.attr,
                                        node.attr))
            elif isinstance(node, ast.ImportFrom):
                module = (node.module or "").rsplit(".", 1)[-1]
                self.qualified.update((module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and not in_package:
                self.strings.add(node.value)

    def used(self, symbol):
        module, name, *member = symbol.split(".")
        if member:
            return (member[0] in self.attributes or member[0] in self.strings
                    or f"{name}.{member[0]}" in self.strings)
        return (name in self.local.get(module, ()) or (module, name) in self.qualified
                or name in self.strings or f"authpsi.{module}:{name}" in self.pyproject
                or f"authpsi.{module}.{name}" in self.pyproject)


def test_every_public_name_has_a_user_outside_the_tests():
    uses = _Uses()
    test_only = [s for s in _definitions() if s not in ALLOWED and not uses.used(s)]
    assert not test_only, f"public, but only tests use them: {test_only}"


def test_allowed_names_exist_and_are_still_test_only():
    # an entry whose name is gone, or has gained a user, is taken off the list
    uses = _Uses()
    defined = set(_definitions())
    assert {s for s in ALLOWED if s not in defined or uses.used(s)} == set()
