"""Dead-code guards: every top-level function, class and method under
``src/repro`` is referenced by some program file — in ``src/``, ``jobs/``,
``benchmarks/`` or ``perfbench/`` — other than its own definition and a
package ``__init__`` re-export, and every keyword-only parameter of a
function there is passed by name in some program-file call to it. Tests do
not count: code or an option that only a test reads is scaffolding, unless
it is listed in ``TEST_ONLY`` or ``UNSET_OPTIONS`` with a reason.

References are matched by name (a call, attribute, import or a dotted
string such as a trace target), so the check is coarse but cheap. A
method counts as referenced only through an attribute or a string: a
builtin called by its bare name (``sum``, ``max``) does not keep a
method of the same name alive. A call is matched to a function by the
callee's name; ``partial(f, ...)`` counts as a call to ``f``, and a call
that passes ``**kwargs`` passes every parameter.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "jobs", "benchmarks", "perfbench")

#: Code that only tests read and that stays on purpose: name → reason.
TEST_ONLY = {
    "from_em": "the logs → EM → model assembly of the full pipeline (paper §II-B)",
    "topic_radar": "the radar-diagram reading of a keyword shown in Scenario 2",
    "assert_equivalent": "the DuckDB oracle: checking Spark dataflows is its job",
    "em_fit_local": "the numpy reference EM that the Spark fit is tested against",
}

#: Keyword-only parameters that no program file sets: (function, parameter) → reason.
UNSET_OPTIONS = {
    ("social_network", "mutual"): "the QQ friendship flavour of the generator (DESIGN.md §2)",
}

_DOTTED = re.compile(r"[A-Za-z_][\w.]*\Z")


def definitions() -> dict:
    """``{name: ("path:line", is_method)}`` for every top-level def/class
    and method."""
    out = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if not (d.name.startswith("__") and d.name.endswith("__")):
                        where = f"{path.relative_to(ROOT)}:{d.lineno}"
                        out.setdefault(d.name, (where, d is not node))
    return out


def references() -> tuple:
    """``(names, attrs)``: every name the program files use, bar
    ``__init__`` re-exports, and the part of it used as an attribute or
    in a string, the only ways a method is reached."""
    names, attrs = set(), set()
    for top in PROGRAM_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            reexports = path.name == "__init__.py"
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    names.update(a.name for a in node.names)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and _DOTTED.match(node.value)):
                    attrs.update(node.value.split("."))
    return names | attrs, attrs


def _referenced(name: str, is_method: bool, refs: tuple) -> bool:
    names, attrs = refs
    return name in (attrs if is_method else names)


def test_every_definition_has_a_program_caller():
    refs = references()
    dead = {n: where for n, (where, is_method) in definitions().items()
            if not _referenced(n, is_method, refs) and n not in TEST_ONLY}
    assert not dead, f"no caller outside tests/: {dead}"


def test_allowlist_is_current():
    """An allowlisted name that is gone, or has gained a program caller,
    leaves the list."""
    defined, refs = definitions(), references()
    stale = [n for n in TEST_ONLY
             if n not in defined or _referenced(n, defined[n][1], refs)]
    assert not stale, f"drop from TEST_ONLY: {stale}"


def keyword_only_parameters() -> dict:
    """``{(function, parameter): "path:line"}`` for every keyword-only
    parameter of a def under ``src/repro``."""
    out = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for a in node.args.kwonlyargs:
                    out[(node.name, a.arg)] = f"{path.relative_to(ROOT)}:{a.lineno}"
    return out


def _callee(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def passed_by_name() -> set:
    """``{(callee, parameter)}`` over every call in the program files; a
    ``**kwargs`` call yields ``(callee, None)``."""
    out = set()
    for top in PROGRAM_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                callee = _callee(node.func)
                if callee == "partial" and node.args:
                    callee = _callee(node.args[0])
                out.update((callee, kw.arg) for kw in node.keywords)
    return out


def test_every_keyword_only_parameter_is_set_by_a_program():
    passed = passed_by_name()
    unset = {key: where for key, where in keyword_only_parameters().items()
             if key not in passed and (key[0], None) not in passed
             and key[0] not in TEST_ONLY and key not in UNSET_OPTIONS}
    assert not unset, f"options no program sets (make them constants): {unset}"


def test_unset_options_allowlist_is_current():
    params, passed = keyword_only_parameters(), passed_by_name()
    stale = [key for key in UNSET_OPTIONS if key not in params or key in passed]
    assert not stale, f"drop from UNSET_OPTIONS: {stale}"


def test_frames_reach_spark_only_through_spark_frame():
    """Every ``createDataFrame`` call under ``src/repro`` and ``jobs/`` is
    the one in ``synth_data.spark_frame``, so no frame of the program skips
    its Arrow-batch settings and lands on the driver as a ``LocalRelation``."""
    calls = []
    for top in ("src/repro", "jobs"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            allowed = set()
            if path == ROOT / "src" / "repro" / "synth_data.py":
                helper = next(n for n in tree.body
                              if isinstance(n, ast.FunctionDef) and n.name == "spark_frame")
                allowed = {id(n) for n in ast.walk(helper)}
            calls += [f"{path.relative_to(ROOT)}:{n.lineno}" for n in ast.walk(tree)
                      if isinstance(n, ast.Call) and _callee(n.func) == "createDataFrame"
                      and id(n) not in allowed]
    assert not calls, f"createDataFrame outside synth_data.spark_frame: {calls}"
