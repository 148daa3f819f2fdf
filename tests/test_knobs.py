"""Every settable value is set by a caller, and every public definition is read.

A defaulted parameter that no caller turns, or a command-line option that
no argv passes, is a configuration that no test covers; such a value
belongs in a module constant. A public function that only its own unit
tests call is API that no experiment uses; a result field that nothing reads
is output that no test checks. Four static checks, by `ast`:

(a) every defaulted parameter of a module-level function or method in
    `src/innerdyn/` receives a value other than its default literal from
    some call in `src/`, `tests/` or `perfbench/`, by keyword or by
    position. Calls are matched by name. A call that forwards
    `*args`/`**kwargs` sets nothing; nested functions are exempt.
(b) every option of every `make_parser()` subcommand appears in an argv for
    that subcommand in `tests/` or `perfbench/`. An argv is a list or tuple
    literal that starts with the subcommand's name. An option appended to
    an argv (`argv + [...]`, `[*argv, ...]`, `argv.append`/`extend`) counts
    for the subcommands whose argvs appear in the same top-level
    definition; where none appear (a helper that takes any argv), it
    counts for every subcommand that has the option. No `.py` file outside
    `tests/` and `perfbench/` builds a parser other than `make_parser`.
(c) every public module-level function and class, and every public method
    (dunders exempt), of `src/innerdyn/*.py` is named somewhere outside its
    own body, in `src/`, `perfbench/` or `tests/test_acceptance.py`; the
    other tests do not count. A name counts as an `ast.Name`, an
    attribute, an import alias, or a string constant equal to the name or
    ending in `.name` (`getattr(h, "on_circle", None)`, a table of dotted
    names). Names are matched alone, as in (a).
(d) every `@dataclass` field in `src/innerdyn/` is read as an attribute
    (`x.field`, matched by name alone) in `src/`, `tests/` or `perfbench/`.
"""

import argparse
import ast
import inspect
from collections import Counter
from pathlib import Path

from innerdyn.cli import make_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "innerdyn"


def _files(*folders):
    return [p for folder in folders for p in sorted((ROOT / folder).rglob("*.py"))]


def _trees(*folders):
    return [ast.parse(p.read_text(), filename=str(p)) for p in _files(*folders)]


def _literal(node):
    try:
        return True, ast.literal_eval(node)
    except ValueError:
        return False, None


def _same(arg, default) -> bool:
    ok_a, a = _literal(arg)
    ok_d, d = _literal(default)
    if ok_a and ok_d:
        return a == d and isinstance(a, bool) == isinstance(d, bool)
    return ast.dump(arg) == ast.dump(default)


def _defaulted_params():
    """(label, call name, positional index or None, name, default node)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [(None, tree.body)] + [(c, c.body) for c in tree.body
                                         if isinstance(c, ast.ClassDef)]
        for cls, body in scopes:
            for fn in body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                decorators = {d.id for d in fn.decorator_list if isinstance(d, ast.Name)}
                skip = 1 if cls is not None and "staticmethod" not in decorators else 0
                call = cls.name if fn.name == "__init__" else fn.name
                label = f"{path.stem}.{cls.name + '.' if cls else ''}{fn.name}"
                positional = fn.args.posonlyargs + fn.args.args
                first = len(positional) - len(fn.args.defaults)
                for i, default in enumerate(fn.args.defaults):
                    found.append((label, call, first + i - skip,
                                  positional[first + i].arg, default))
                for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        found.append((label, call, None, a.arg, default))
    return found


def _calls_by_name(trees):
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _turned(call: ast.Call, index, name, default) -> bool:
    for kw in call.keywords:
        if kw.arg == name:
            return not _same(kw.value, default)
    if index is None:
        return False
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return False
        if i == index:
            return not _same(arg, default)
    return False


def test_every_defaulted_parameter_is_turned_by_a_caller():
    calls = _calls_by_name(_trees("src", "tests", "perfbench"))
    untouched = [f"{label}({name}=...)"
                 for label, call, index, name, default in _defaulted_params()
                 if not any(_turned(c, index, name, default) for c in calls.get(call, []))]
    assert untouched == [], untouched


def _subcommand_options():
    parser = make_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for action in q._actions for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"}
            for name, q in sub.choices.items()}


def _options_in(node) -> set:
    opts = set()
    for elt in getattr(node, "elts", []):
        text = None
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            text = elt.value
        elif isinstance(elt, ast.JoinedStr):   # f"--flag={value}"
            text = next((v.value for v in elt.values[:1] if isinstance(v, ast.Constant)), None)
        if text is not None and text.startswith("--"):
            opts.add(text.split("=")[0])
    return opts


def _appended(node):
    """The sequence literal that `node` appends to some other argv, if any."""
    seq = (ast.List, ast.Tuple)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return node.right if isinstance(node.right, seq) else None
    if isinstance(node, seq) and node.elts and isinstance(node.elts[0], ast.Starred):
        return node
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("append", "extend") and len(node.args) == 1):
        arg = node.args[0]
        return arg if isinstance(arg, seq) else ast.List(elts=[arg])
    return None


def test_every_cli_option_is_passed_by_an_argv():
    options = _subcommand_options()
    passed = {name: set() for name in options}
    for tree in _trees("tests", "perfbench"):
        for scope in tree.body:
            argvs = [n for n in ast.walk(scope) if isinstance(n, (ast.List, ast.Tuple))
                     and n.elts and isinstance(n.elts[0], ast.Constant)
                     and n.elts[0].value in options]
            here = {n.elts[0].value for n in argvs}
            for n in argvs:
                passed[n.elts[0].value] |= _options_in(n)
            for node in ast.walk(scope):
                extra = _appended(node)
                if extra is None:
                    continue
                for name in here or options:
                    passed[name] |= _options_in(extra) & options[name]
    missing = sorted(f"{name} {opt}" for name, opts in options.items()
                     for opt in opts - passed[name])
    # and no program outside tests/ and perfbench/ builds a parser of its own
    skip = {"tests", "perfbench", "build", "site-packages"}
    programs = [p for p in ROOT.rglob("*.py") if not skip & set(p.relative_to(ROOT).parts)
                and not p.relative_to(ROOT).parts[0].startswith(".")]
    parsers = [(p, n.lineno) for p in programs for n in ast.walk(ast.parse(p.read_text()))
               if isinstance(n, ast.Call) and "ArgumentParser" in ast.dump(n.func)]
    lines, first = inspect.getsourcelines(make_parser)
    missing += [f"{p.relative_to(ROOT)}:{ln}" for p, ln in parsers
                if p != SRC / "cli.py" or not first <= ln < first + len(lines)]
    assert missing == [], missing


def _named(node) -> Counter:
    """How often each name is read inside `node`, in the senses of (c)."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names[n.value.rsplit(".", 1)[-1]] += 1
    return names


def _public_definitions():
    """(label, definition node) for every public function, class and method."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not top.name.startswith("_"):
                found.append((f"{path.stem}.{top.name}", top))
            if isinstance(top, ast.ClassDef):
                found += [(f"{path.stem}.{top.name}.{fn.name}", fn) for fn in top.body
                          if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and not fn.name.startswith("_")]
    return found


def test_every_public_definition_has_a_reader():
    readers = _files("src", "perfbench") + [ROOT / "tests" / "test_acceptance.py"]
    named = sum((_named(ast.parse(p.read_text(), filename=str(p))) for p in readers), Counter())
    unread = [label for label, node in _public_definitions()
              if named[node.name] <= _named(node)[node.name]]
    assert unread == [], unread


def test_every_dataclass_field_is_read():
    read = {n.attr for tree in _trees("src", "tests", "perfbench") for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{p.stem}.{c.name}.{f.target.id}" for p in sorted(SRC.glob("*.py"))
              for c in ast.walk(ast.parse(p.read_text())) if isinstance(c, ast.ClassDef)
              and any("dataclass" in ast.dump(d) for d in c.decorator_list)
              for f in c.body if isinstance(f, ast.AnnAssign) and f.target.id not in read]
    assert unread == [], unread
