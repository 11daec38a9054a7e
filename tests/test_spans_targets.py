"""The traced benchmark run wraps layer functions by name; every name it
lists must still resolve, or a rename would silently drop its spans, and the
names that the CLI never calls are listed, so a span that always reads zero
shows."""

import ast
import contextlib
import functools
import importlib
import io
import pathlib
import sys
from collections import Counter

from faultline import cli

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


def test_every_traced_target_runs(monkeypatch, tmp_path):
    # a target that the CLI never calls is a span that always reads zero:
    # wrap each one as the tracer does, with a call counter, and run every
    # subcommand the workloads run on the bundled documents
    calls = Counter()

    def counted(span, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[span] += 1
            return fn(*args, **kwargs)
        return wrapper

    targets = _targets()
    for span, modname, attr in targets:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            monkeypatch.setattr(cls, meth, counted(span, cls.__dict__[meth]))
            continue
        original = getattr(module, attr)
        wrapped = counted(span, original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("faultline"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, wrapped)

    argvs = []
    for name in ("period_doubling", "doubling_swap", "row_thirds"):
        src = ["-i", f"bundled:{name}"]
        argvs += [["analyze", *src], ["cohomology", *src],
                  ["render", *src, "--rounds", "3", "--overlay", "1",
                   "-o", str(tmp_path / f"{name}.svg")]]
    argvs += [["ap", "-i", "bundled:period_doubling", "--name", "rho"],
              ["mu", "-i", "bundled:row_thirds", "--name", "rho"],
              ["fault", "-i", "bundled:doubling_swap", "--top", "sigma1", "--bottom", "sigma2"]]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            assert cli.main(argv) == 0, argv
    never = {span for span, _, _ in targets} - set(calls)
    # reached only from tests, until the spans that wrap them are re-pointed
    assert never == {"algebra.mod_reduce", "algebra.refined"}
