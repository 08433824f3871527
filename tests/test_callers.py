"""Dead-code guard: every top-level function, class and method under
``src/repro`` is referenced by some program file — in ``src/``, ``jobs/``,
``benchmarks/`` or ``perfbench/`` — other than its own definition and a
package ``__init__`` re-export. Tests do not count: code that only a test
reads is scaffolding, unless it is listed in ``TEST_ONLY`` with a reason.

References are matched by name (a call, attribute, import or a dotted
string such as a trace target), so the check is coarse but cheap.
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
    "local_graph_from_edges_df": "collects a Spark edge frame into the online CSR",
    "effective_edges_pdf": "the query graph pp_γ as a (src, dst, p) pandas frame",
    "users_df": "lifts the generated users into Spark, as edges_df does the edges",
    "vocab_pdf": "the generated p(w|z) in long form, for inspection",
    "item_words_pdf": "the exploded (item, word) evidence of an action log",
    "materialize_query_graph": "the pp_γ fold as a Catalyst projection, oracle-checked",
    "materialize_query_graph_array": "the same fold over the array<double> edge layout",
    "edges_with_array_probs": "builds the array<double> edge layout for that fold",
    "gamma_for_queries": "batch keyword → γ Bayes as a Spark job, oracle-checked",
    "lineitem": "TPC-H-lite table, a generic Spark fixture",
    "orders": "TPC-H-lite table, a generic Spark fixture",
    "customer": "TPC-H-lite table, a generic Spark fixture",
    "zipf_keys": "skewed key column, a generic Spark fixture",
    "uniform_keys": "uniform key column, a generic Spark fixture",
}

_DOTTED = re.compile(r"[A-Za-z_][\w.]*\Z")


def definitions() -> dict:
    """``{name: "path:line"}`` for every top-level def/class and method."""
    out = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if not (d.name.startswith("__") and d.name.endswith("__")):
                        out.setdefault(d.name, f"{path.relative_to(ROOT)}:{d.lineno}")
    return out


def references() -> set:
    """Every name the program files use, bar ``__init__`` re-exports."""
    used = set()
    for top in PROGRAM_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            reexports = path.name == "__init__.py"
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    used.update(a.name for a in node.names)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and _DOTTED.match(node.value)):
                    used.update(node.value.split("."))
    return used


def test_every_definition_has_a_program_caller():
    used = references()
    dead = {n: where for n, where in definitions().items()
            if n not in used and n not in TEST_ONLY}
    assert not dead, f"no caller outside tests/: {dead}"


def test_allowlist_is_current():
    """An allowlisted name that is gone, or has gained a program caller,
    leaves the list."""
    defined, used = definitions(), references()
    stale = [n for n in TEST_ONLY if n not in defined or n in used]
    assert not stale, f"drop from TEST_ONLY: {stale}"
