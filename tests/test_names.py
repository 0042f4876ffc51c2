"""Static guard against undefined module-level names in the package sources.

A global referenced only inside a function raises ``NameError`` at call time,
not at import, so a path that no test reaches can carry one unnoticed.  The
project has no linter dependency, so this walks each module's symbol table
(stdlib ``symtable``) and flags every global that a nested scope reads but
the module neither assigns, imports nor defines, and that is not a builtin.
The symbol tables do not see ``__all__``, so its entries are checked against
the imported package.  The same tables also guard the other way: a
module-level function or class that nothing else in the package reads and
that ``__all__`` does not export is reported as orphan code.
"""

import ast
import builtins
import symtable
from pathlib import Path

import polarlasso

SRC = Path(polarlasso.__file__).resolve().parent
MODULE_DUNDERS = {"__file__", "__name__", "__doc__", "__spec__", "__package__", "__loader__"}


def _undefined_globals(path):
    top = symtable.symtable(path.read_text(encoding="utf-8"), str(path), "exec")
    known = set(dir(builtins)) | MODULE_DUNDERS
    known |= {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    missing = []
    stack = [(table, table.get_name()) for table in top.get_children()]
    while stack:
        table, qualname = stack.pop()
        for sym in table.get_symbols():
            if sym.is_global() and sym.is_referenced() and sym.get_name() not in known:
                missing.append((path.name, qualname, sym.get_name()))
        stack.extend((child, f"{qualname}.{child.get_name()}") for child in table.get_children())
    return missing


def test_no_undefined_module_names():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    missing = sorted(m for path in modules for m in _undefined_globals(path))
    assert not missing, "undefined globals (module, scope, name): " + repr(missing)


def test_every_exported_name_is_bound():
    # a name deleted from a module but left in __all__ breaks `import *` only
    missing = [name for name in polarlasso.__all__ if not hasattr(polarlasso, name)]
    assert not missing, "names in __all__ not bound in polarlasso: " + repr(missing)


def _module_defs(path):
    """Names of the functions and classes defined at the top level of a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _referenced(table):
    """Every name read in a symbol table or in any scope nested in it."""
    names = {sym.get_name() for sym in table.get_symbols() if sym.is_referenced()}
    for child in table.get_children():
        names |= _referenced(child)
    return names


def test_no_orphan_definitions():
    # a module-level function or class that no other scope of the package
    # reads and that is not exported is code no pipeline path reaches
    uses = []  # (module, defining scope or None, names read there)
    defs = []
    for path in sorted(SRC.glob("*.py")):
        top = symtable.symtable(path.read_text(encoding="utf-8"), str(path), "exec")
        uses.append((path.stem, None, {s.get_name() for s in top.get_symbols() if s.is_referenced()}))
        uses.extend((path.stem, child.get_name(), _referenced(child)) for child in top.get_children())
        defs.extend((path.stem, name) for name in _module_defs(path))
    exported = set(polarlasso.__all__)
    orphans = [
        (module, name) for module, name in defs
        if name not in exported
        and not any(name in names for m, scope, names in uses if (m, scope) != (module, name))
    ]
    assert not orphans, "unreferenced and unexported (module, name): " + repr(orphans)


def _seed_splits(path):
    """Lines of a module that name SeedSequence or call a `.spawn(` method."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and node.id == "SeedSequence":
            hits.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "SeedSequence":
            hits.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "spawn":
            hits.append(node.lineno)
    return hits


def test_one_seed_splitter():
    # problem.sweep_chunks is the only place a seed is split into chunk
    # streams, so every Monte Carlo route consumes its seed the same way
    assert _seed_splits(SRC / "problem.py"), "sweep_chunks no longer splits seeds"
    found = [(path.name, line) for path in sorted(SRC.glob("*.py")) if path.name != "problem.py"
             for line in _seed_splits(path)]
    assert not found, "seed splitting outside problem.sweep_chunks (module, line): " + repr(found)


def test_only_map_chunks_reads_sweep_chunks():
    # every Monte Carlo route runs its chunks through problem.map_chunks,
    # which alone decides how many run at once and merges them in order
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in _calls(path, ("sweep_chunks",))]
    assert [hit[:2] for hit in found] == [("problem.py", "map_chunks")], \
        "sweep_chunks calls (module, function, callee, line): " + repr(found)


def _calls(path, callees):
    """(module, function, callee, line) of every call of one of `callees` in
    a module; function is None at module level."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else scope
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if name in callees:
                    hits.append((path.name, scope, name, child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return hits


RADIAL_LAW = ("tilted_peaks", "log_gaussian_moment")


def test_one_radial_law():
    # every radial mass, mode, peak and bracket comes from the segment
    # functions of shifted.py; the only other kernel calls are the beta-only
    # H of radial.mass_closed_form (the curves command and its expansion
    # check) and the upper incomplete gamma of partition.concentration_prob
    assert any(name == "tilted_peaks" for *_, name, _ in _calls(SRC / "shifted.py", RADIAL_LAW))
    allowed = {("radial.py", "mass_closed_form", "log_gaussian_moment"),
               ("partition.py", "concentration_prob", "log_gaussian_moment")}
    found = [hit for path in sorted(SRC.glob("*.py")) if path.name not in ("shifted.py", "_moments.py")
             for hit in _calls(path, RADIAL_LAW) if hit[:3] not in allowed]
    assert not found, "radial kernel calls outside shifted.py (module, function, callee, line): " + repr(found)


def _scipy_imports(path):
    """Lines of a module that import scipy or one of its submodules."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return lines


def test_runtime_needs_no_scipy():
    # the package depends on numpy alone; scipy serves only the test oracles
    found = [(path.name, line) for path in sorted(SRC.glob("*.py")) for line in _scipy_imports(path)]
    assert not found, "scipy imports (module, line): " + repr(found)


def _uniform_calls(path):
    """Lines of a module that call a `.uniform(` method."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "uniform"]


def test_no_generator_uniform():
    """Every uniform draw of the package comes from Generator.random.

    Generator.uniform(lo, hi) returns lo + (hi - lo) next_double: with
    hi - lo = 1 that is random() + lo to the bit, and it leaves the generator
    in the same state, but it does not take random()'s fill path and is
    slower per draw.
    """
    found = [(path.name, line) for path in sorted(SRC.glob("*.py")) for line in _uniform_calls(path)]
    assert not found, "Generator.uniform calls (module, line): " + repr(found)
