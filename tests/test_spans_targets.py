"""The traced benchmark run wraps layer functions by name; every name it
lists must still resolve, or a rename would silently drop its spans."""

import ast
import importlib
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("TARGETS not found in perfbench/spans.py")


def test_every_traced_target_resolves():
    targets = _targets()
    assert len(targets) > 20
    for span, modname, attr in targets:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer wraps the function in the class dict, not an inherited one
            assert callable(getattr(module, cls_name).__dict__.get(meth)), (span, attr)
        else:
            assert callable(getattr(module, attr, None)), (span, attr)
