"""Every public name the package defines is used by the package or the benchmark.

A public top-level function or class, or a public method, of
`src/eegauth` must be named somewhere other than its own definition: in
`src/eegauth` or in `perfbench/*.py`, where the tracer's TARGETS strings
("module", "Class.method") count as names.  Tests do not count: a name only
tests call is dead code with a test.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eegauth"

# qualified name (module.name or Class.method) -> why it stays unused
ALLOWED = {
    "AuthServiceHandler.do_GET": "http.server dispatches GET requests to it by name",
    "AuthServiceHandler.log_message": "http.server calls it by name for every request",
    "AuthServiceHandler.handle_expect_100":
        "http.server calls it by name for a request that expects 100 Continue",
    "_ReusedThreadsHTTPServer.process_request": "socketserver calls it by name",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def definitions(path: Path) -> list[tuple[str, str]]:
    """(qualified name, bare name) of the module's public top-level functions
    and classes and of the public methods of its top-level classes."""
    module = path.stem
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and _public(node.name):
            found.append((f"{module}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            found.extend((f"{node.name}.{item.name}", item.name) for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and _public(item.name))
    return found


def references(path: Path) -> set[str]:
    """Every name a file uses: names, attributes, imported names, and the
    dotted parts of string constants."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(node.value.split("."))
    return used


def dead_names() -> list[str]:
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(references(path) for path in sources))
    return sorted(qualified for path in sorted(PACKAGE.glob("*.py"))
                  for qualified, name in definitions(path)
                  if name not in used and qualified not in ALLOWED)


def test_every_public_name_is_used():
    assert dead_names() == []


def test_allowlist_names_defined_names():
    defined = {qualified for path in PACKAGE.glob("*.py")
               for qualified, _ in definitions(path)}
    assert set(ALLOWED) <= defined
