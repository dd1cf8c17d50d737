"""No environment variable selects an implementation.

The simulator has one implementation of every layer.  The environment
may turn on the SCSan checking overlay (``REPRO_SANITIZE``) and move the
experiment run cache (``REPRO_RUNCACHE_DIR``), and nothing else: every
read of ``os.environ`` or ``os.getenv`` under ``src/repro`` must name one
of those two keys as a string literal.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: the only environment keys the package may read
ALLOWED_KEYS = {"REPRO_SANITIZE", "REPRO_RUNCACHE_DIR"}


def _is_os_attr(node, attr):
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def environment_reads(tree):
    """Yield ``(node, key_node)`` for every environment read in ``tree``;
    ``key_node`` is None when the access names no single key."""
    parents = {
        child: node
        for node in ast.walk(tree)
        for child in ast.iter_child_nodes(node)
    }
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and _is_os_attr(node.func, "getenv")):
            yield node, node.args[0] if node.args else None
        if not _is_os_attr(node, "environ"):
            continue
        parent = parents.get(node)
        if isinstance(parent, ast.Subscript) and parent.value is node:
            if not isinstance(parent.ctx, ast.Store):  # writes are fine
                yield parent, parent.slice
        elif (isinstance(parent, ast.Attribute)
              and isinstance(parents.get(parent), ast.Call)
              and parents[parent].func is parent):
            call = parents[parent]
            yield call, call.args[0] if call.args else None
        elif (isinstance(parent, ast.Compare)
              and parent.comparators == [node]
              and isinstance(parent.ops[0], (ast.In, ast.NotIn))):
            yield parent, parent.left
        else:
            yield node, None  # a whole-environment read


def test_only_allowed_environment_keys_are_read():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
                assert not names & {"environ", "getenv"}, (
                    f"{path}:{node.lineno}: import os and read os.environ"
                )
        for node, key in environment_reads(tree):
            where = f"{path.relative_to(SRC)}:{node.lineno}"
            assert isinstance(key, ast.Constant) and isinstance(
                key.value, str
            ), f"{where}: environment key is not a string literal"
            assert key.value in ALLOWED_KEYS, (
                f"{where}: reads {key.value!r}; only {sorted(ALLOWED_KEYS)} "
                f"may come from the environment"
            )
            found.add(key.value)
    # both known reads are seen, so the walker itself works
    assert found == ALLOWED_KEYS
