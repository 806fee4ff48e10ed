"""The library holds only code that runs outside the test suite.

Reference implementations that only proofs need (exhaustive oracles,
brute-force transitions, gradient references) belong in ``tests/oracles.py``.
This guard walks ``src/evcs`` with ``ast`` and requires every public
module-level function and class to be referenced, through a Name or an
Attribute node, from code outside ``tests/``: elsewhere in ``src/evcs``, in
``bench/`` or in ``scripts/``.  A reference made from inside another
library function that itself only tests reach does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "evcs"


def _public_definitions() -> dict[str, str]:
    """Public module-level function and class names, mapped to their module."""
    names = {}
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names[node.name] = path.stem
    return names


def _references(paths) -> dict[str, set[str | None]]:
    """For every Name or Attribute identifier: the top-level library
    definitions that mention it (None for code outside a library definition)."""
    found: dict[str, set[str | None]] = {}
    for path in paths:
        in_library = path.parent == LIBRARY
        for top in ast.parse(path.read_text()).body:
            owner = None
            if in_library and isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                owner = top.name
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    found.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    found.setdefault(node.attr, set()).add(owner)
    return found


def test_every_public_library_name_is_used_outside_tests():
    definitions = _public_definitions()
    production = [*LIBRARY.glob("*.py"), *(ROOT / "bench").glob("*.py"),
                  *(ROOT / "scripts").glob("*.py")]
    references = _references(production)
    # drop names whose only production users are other unused names (or
    # themselves), until nothing changes
    unused: set[str] = set()
    while True:
        now = {
            name for name in definitions
            if not (references.get(name, set()) - unused - {name})
        }
        if now == unused:
            break
        unused = now
    assert not unused, (
        "library names that only tests reach (move them to tests/oracles.py "
        f"or delete them): {sorted(f'{definitions[n]}.{n}' for n in unused)}"
    )
