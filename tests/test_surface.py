"""Every exported name has a caller and a home, and every import is read.

A name a module lists in ``__all__`` must be read somewhere in the package's
modules (the package root's re-exports do not count), or be documented in
README.md as part of the public interface, and it must be defined in that
module: only the package root re-exports.  A keyword-only parameter of an
exported function must likewise be passed by name to that function
somewhere in the package, or be named in README.md.  A name a module imports at module level must be
read in that module or listed in its ``__all__``, and no module imports
inside a function, which would hide an import cycle.  A private function,
class or constant at module level must be read by some module of the
package: one that nothing reads is a leftover.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "trunclsq").glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def declared_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def exported_and_used():
    exported, used = {}, set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        for name in declared_all(tree):
            exported[name] = path.name
    return exported, used


def test_every_export_has_a_caller_or_a_readme_entry():
    exported, used = exported_and_used()
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    orphans = sorted(
        f"{module}:{name}"
        for name, module in exported.items()
        if not name.startswith("__") and name not in used and name not in readme
    )
    assert orphans == []


def test_every_exported_knob_is_turned_or_documented():
    passed, knobs = set(), []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        passed |= {(getattr(node.func, "id", None) or getattr(node.func, "attr", None), kw.arg)
                   for node in ast.walk(tree) if isinstance(node, ast.Call) for kw in node.keywords}
        exported = set(declared_all(tree))
        knobs += [(path.name, node.name, arg.arg) for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name in exported
                  for arg in node.args.kwonlyargs]
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    unturned = sorted(f"{module}:{function}({name}=)" for module, function, name in knobs
                      if (function, name) not in passed and name not in readme)
    assert unturned == []


def defined_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_export_is_defined_where_it_is_exported():
    foreign = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = defined_names(tree)
        foreign += [f"{path.name}:{name}" for name in declared_all(tree) if name not in defined]
    assert sorted(foreign) == []


def test_every_private_module_level_name_is_read():
    read, private = set(), []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        private += [(path.name, name) for name in defined_names(tree)
                    if name.startswith("_") and not name.startswith("__")]
    assert sorted(f"{module}:{name}" for module, name in private if name not in read) == []


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read and name not in declared_all(tree)]


def test_every_module_level_import_is_read():
    unused = sorted(f"{path.name}:{name}" for path in SOURCES for name in unused_imports(path))
    assert unused == []


def test_no_import_below_module_level():
    nested = sorted(
        f"{path.name}:{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(inner, (ast.Import, ast.ImportFrom)) for inner in ast.walk(node))
    )
    assert nested == []
