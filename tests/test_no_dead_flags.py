"""Every command-line option the parser defines is read by the program.

Each `add_argument` call in `src/eegauth/cli.py` stores its value under a
dest: its `dest=` keyword, or else its long flag without the leading dashes
and with `-` turned into `_`.  The module must read every such dest as
`args.<dest>`; an option nothing reads is a dead flag.  Both sides come
from the module's AST, so no argparse internals are consulted.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "eegauth" / "cli.py"


def option_dests(tree: ast.AST) -> set[str]:
    dests = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            continue
        keywords = {kw.arg: kw.value for kw in node.keywords}
        if "dest" in keywords:
            dests.add(ast.literal_eval(keywords["dest"]))
        else:
            flags = [ast.literal_eval(arg) for arg in node.args]
            dests.add(next(flag for flag in flags if flag.startswith("--"))[2:]
                      .replace("-", "_"))
    return dests


def args_reads(tree: ast.AST) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}


def test_every_option_is_read():
    tree = ast.parse(CLI.read_text())
    dests = option_dests(tree)
    assert dests, "no add_argument call found"
    assert sorted(dests - args_reads(tree)) == []

