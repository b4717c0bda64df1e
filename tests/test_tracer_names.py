"""The benchmark's traced run wraps library functions by name.

`perfbench/tracer.py` looks each name up with `owner.__dict__[name]`, so a
renamed or deleted function ends the traced run with a KeyError.  Read its
name tables without importing it, and check that every name still resolves
in `logres`.
"""

import ast
import importlib
import os

from checkout import REPO_ROOT


def tracer_tables():
    path = os.path.join(REPO_ROOT, "perfbench", "tracer.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANNED", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    return tables["SPANNED"], tables["COUNTED"]


def test_tracer_names_resolve_in_logres():
    spanned, counted = tracer_tables()
    assert spanned and counted
    for mod, path, _ in spanned:
        owner = importlib.import_module("logres." + mod)
        parts = path.split(".")
        for p in parts[:-1]:
            owner = getattr(owner, p)
        assert callable(owner.__dict__.get(parts[-1])), (mod, path)
    for mod, cls, methods, _ in counted:
        klass = getattr(importlib.import_module("logres." + mod), cls)
        for meth in methods:
            assert callable(klass.__dict__.get(meth)), (mod, cls, meth)
