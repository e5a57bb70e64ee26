"""Every exported name has a caller.

A name a module lists in ``__all__`` must be read somewhere in the package's
modules (the package root's re-exports do not count), or be documented in
README.md as part of the public interface.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "trunclsq").glob("*.py") if p.name != "__init__.py")


def exported_and_used():
    exported, used = {}, set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            ):
                for name in ast.literal_eval(node.value):
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
