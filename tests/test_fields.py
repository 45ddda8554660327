"""Field and function census: every field of a record in src/advface is read
somewhere in src/advface, and every function or method defined there is named.
Module boundaries: each name below appears only in the modules that own it, and
NumPy is the only import outside the standard library.

A field counts as read when some `x.<field>` attribute load names it in any
module of the package; a field that only a test or the benchmark reads is a
field the program carries for nothing. A function counts as named when some
`name` or `x.name` load in the package names it (dunders apart, which Python
calls itself); one that only a test or the benchmark calls is code the
program carries for nothing.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import advface

SRC = Path(advface.__file__).parent

# field -> why it stays although no src/ line reads it; every entry gives a reason
ALLOWED_UNREAD: dict[str, str] = {}

# function -> why it stays although no src/ line names it; every entry gives a reason
ALLOWED_UNNAMED: dict[str, str] = {
    "grid_search_plan": "the paper's plan search over (eta, kappa): the benchmark's "
                        "defend-eval workload and the tests call it, and no CLI "
                        "subcommand runs it",
}


def _trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _is_record(cls: ast.ClassDef) -> bool:
    """A @dataclass (bare or called) or a NamedTuple subclass."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return (any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
            or any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases))


def record_fields(trees) -> list[tuple[str, str, str]]:
    """(module, class, field) of every annotated field of every record class."""
    return [(module, node.name, stmt.target.id)
            for module, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and _is_record(node)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def attribute_loads(trees) -> set[str]:
    return {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def names_loaded(trees) -> set[str]:
    """Every name an `ast.Name` or `ast.Attribute` load gives."""
    return attribute_loads(trees) | {node.id for tree in trees.values() for node in ast.walk(tree)
                                     if isinstance(node, ast.Name)
                                     and isinstance(node.ctx, ast.Load)}


def defined_functions(trees) -> list[tuple[str, str]]:
    """(module, name) of every function and method, nested ones too, dunders apart."""
    return [(module, node.name) for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def test_census_finds_the_records():
    fields = record_fields(_trees())
    classes = {(module, cls) for module, cls, _ in fields}
    assert ("synthface.py", "SubjectParams") in classes
    assert ("imagecore.py", "Point") in classes  # a NamedTuple
    assert len(fields) > 50


def test_every_record_field_is_read_in_src():
    trees = _trees()
    read = attribute_loads(trees)
    unread = [f"{module}: {cls}.{field}" for module, cls, field in record_fields(trees)
              if field not in read and field not in ALLOWED_UNREAD]
    assert not unread, "fields no src/advface line reads:\n" + "\n".join(unread)


def test_every_allowlist_entry_is_needed_and_explained():
    read = attribute_loads(_trees())
    assert all(reason.strip() for reason in ALLOWED_UNREAD.values())
    assert not [field for field in ALLOWED_UNREAD if field in read]


def test_every_function_is_named_in_src():
    trees = _trees()
    named = names_loaded(trees)
    assert len(defined_functions(trees)) > 100
    unnamed = [f"{module}: {name}" for module, name in defined_functions(trees)
               if name not in named and name not in ALLOWED_UNNAMED]
    assert not unnamed, "functions no src/advface line names:\n" + "\n".join(unnamed)


def test_every_function_allowlist_entry_is_needed_and_explained():
    trees = _trees()
    named = names_loaded(trees)
    assert all(reason.strip() for reason in ALLOWED_UNNAMED.values())
    assert set(ALLOWED_UNNAMED) <= {name for _, name in defined_functions(trees)} - named


def _words(pattern: str) -> str:
    """pattern matched as whole words only, as `grep -w` matches it."""
    return rf"(?<!\w)(?:{pattern})(?!\w)"


# (pattern, the modules that may match it, why): a line of any other module
# that matches fails, and each owner must match, so a mistyped rule shows
BOUNDARIES = [
    (_words("forward_batch"), {"featnet.py"},
     "the forward-counting tests patch featnet alone"),
    (_words("FORWARD_CHUNK"), {"featnet.py"}, "the chunk size stays inside the forward pass"),
    (_words("ThreadPoolExecutor"), {"featnet.py"}, "one worker pool per process"),
    (_words("_parallel_blocks"), {"featnet.py"},
     "the block runner and its per-thread scratch stay inside the forward"),
    (r"^\s*(import|from)\s.*\bthreading\b", {"featnet.py"},
     "every lock and wait lives next to the pool"),
    (_words("median_filter_array|MEDIAN_WINDOW"), {"mitigator.py", "imagecore.py"},
     "imagecore defines the median filter; the correction has one routine"),
]


@pytest.mark.parametrize("pattern, owners, why", BOUNDARIES,
                         ids=["forward_batch", "FORWARD_CHUNK", "ThreadPoolExecutor",
                              "_parallel_blocks", "threading", "median_filter"])
def test_only_the_owners_name_it(pattern, owners, why):
    lines = {p.name: p.read_text().splitlines() for p in sorted(SRC.glob("*.py"))}
    hits = {name: [f"{name}:{i}: {line.strip()}" for i, line in enumerate(text, 1)
                   if re.search(pattern, line)] for name, text in lines.items()}
    assert all(hits[name] for name in owners), f"the owners never match {pattern!r}"
    strays = [hit for name, found in hits.items() if name not in owners for hit in found]
    assert not strays, f"only {sorted(owners)} may match ({why}):\n" + "\n".join(strays)


def test_numpy_is_the_only_runtime_dependency():
    """Every absolute import of the package is NumPy or the standard library."""
    allowed = {"numpy", "__future__", *sys.stdlib_module_names}
    bad = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad += [f"{module}:{node.lineno}: {n}" for n in names
                    if n.split(".")[0] not in allowed]
    assert not bad, "imports outside NumPy and the standard library:\n" + "\n".join(bad)
