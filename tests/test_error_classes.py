"""Every exception class exists because some code handles it apart from its base.

A class of `errors.py` that no `except` clause of `src/eegauth` names is
told apart from EegAuthError only by its name: callers get the same exit
code, HTTP status and trace row either way, so it is a second spelling of
its base.  The message says which failure happened.
"""

import ast
import importlib
import inspect
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "eegauth"


def error_classes() -> list[str]:
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef)]


def caught_names() -> set[str]:
    """The class names that some except clause of the package catches."""
    caught = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(t.id if isinstance(t, ast.Name) else t.attr for t in types
                              if isinstance(t, (ast.Name, ast.Attribute)))
    return caught


def test_every_error_class_is_caught_somewhere():
    caught = caught_names()
    uncaught = [name for name in error_classes()
                if name != "EegAuthError" and name not in caught]
    assert uncaught == []


def test_only_errors_module_defines_exceptions():
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"eegauth.{path.stem}")
        defined += [f"{path.stem}.{name}" for name, obj in vars(module).items()
                    if inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__]
    assert defined and all(name.startswith("errors.") for name in defined)
