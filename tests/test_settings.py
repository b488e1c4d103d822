"""The settings ledger: every default of the library is one a run sets.

A public function's default that no call in ``src/`` or ``demos/`` ever
passes is a setting with one value in use, which the lab keeps as a
constant instead; the few that stay are named in ``UNSET`` with the
reason. The scan reads the source with ``ast``:

* in scope are the module-level functions of ``src/wmcflab/*.py`` and
  the methods of its module-level classes, except names that start with
  ``_``; a class's ``__init__`` is reached through calls of the class
  name. ``experiments.run_*`` is left out: tests size the runners down
  and the benchmark's workloads pass their parameters by keyword;
* a default is set when some call in ``src/`` or ``demos/`` whose callee
  name matches (a bare name or an attribute) passes it by position or
  by keyword, or passes ``*`` or ``**``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

UNSET = {
    "cli.main.argv":
        "the console script calls main(); the tests pass argv",
    "wells.geodesic_distance.tol":
        "quadrature accuracy of an oracle; test_wells.py tightens it",
    "sharp.sigma_from_well.tol":
        "quadrature accuracy of an oracle; Tier-1 uses 1e-12",
    "sharp.transport_residual.n_t":
        "test_sharp.py halves the time step (8 -> 16) to show the "
        "trapezoid's order",
}


def _scoped_functions(tree: ast.Module, module: str):
    """(ledger name, callee name, def node, leading parameters a call
    does not pass) of each function in scope."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                bound = 0 if any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in item.decorator_list) else 1
                name = f"{module}.{node.name}.{item.name}"
                if item.name == "__init__":
                    yield name, node.name, item, bound
                elif not item.name.startswith("_"):
                    yield name, item.name, item, bound


def _calls_by_callee():
    calls = {}
    for path in sorted(ROOT.glob("src/wmcflab/*.py")) \
            + sorted(ROOT.glob("demos/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls.setdefault(func.id, []).append(node)
                elif isinstance(func, ast.Attribute):
                    calls.setdefault(func.attr, []).append(node)
    return calls


def _sets(call: ast.Call, index, param: str) -> bool:
    """Whether ``call`` passes the parameter at ``index`` among the
    positional ones the call gives (None for keyword-only), named
    ``param``."""
    if any(isinstance(a, ast.Starred) for a in call.args) \
            or any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def unset_defaults() -> set:
    """The ledger names of the defaults in scope that no call sets."""
    calls = _calls_by_callee()
    unset = set()
    for path in sorted(ROOT.glob("src/wmcflab/*.py")):
        tree = ast.parse(path.read_text())
        for name, callee, fn, bound in _scoped_functions(tree, path.stem):
            if name.startswith("experiments.run_"):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i - bound, p.arg)
                         for i, p in enumerate(positional) if i >= first]
            defaulted += [(None, p.arg) for p, d
                          in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for index, param in defaulted:
                if not any(_sets(c, index, param)
                           for c in calls.get(callee, ())):
                    unset.add(f"{name}.{param}")
    return unset


def test_every_unset_default_is_in_the_ledger():
    # a new default that no run sets fails here, and so does an entry
    # whose default a run now sets or that no longer exists
    unset = unset_defaults()
    assert unset - UNSET.keys() == set()
    assert UNSET.keys() - unset == set()
