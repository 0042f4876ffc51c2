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
import inspect
import symtable
from pathlib import Path

import polarlasso
from polarlasso.shifted import unit_shift_batch

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


# the object that fixes a direction's radial law, and the arguments it holds
DIRECTION_TYPES = ("ShiftBatch",)
RESTATED = ("p", "y_norm")


def _direction_readers(path):
    """(function, its parameter names) of every function of a module whose
    first parameter is annotated with one of DIRECTION_TYPES."""
    readers = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef):
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if params and params[0].annotation is not None \
                    and ast.unparse(params[0].annotation).strip("'\"").split(".")[-1] in DIRECTION_TYPES:
                readers.append((node.name, [a.arg for a in params]))
    return readers


def test_direction_readers_take_the_direction_alone():
    # a ShiftBatch is built from the instance, so its readers derive p (the
    # width of its directions) and ||y|| (through h0) from it; an argument
    # that restates them can only disagree
    readers = {path.name: _direction_readers(path) for path in sorted(SRC.glob("*.py"))}
    names = {name for found in readers.values() for name, _ in found}
    assert {"shifted_log_masses", "shifted_log_summaries", "shifted_modes", "radial_summary"} <= names
    found = [(module, name, arg) for module, found in readers.items() for name, params in found
             for arg in params if arg in RESTATED]
    assert not found, "restated direction arguments (module, function, parameter): " + repr(found)


def test_one_reader_family():
    # every function that reads a ShiftBatch lives next to its builder, so a
    # second family of per-direction readers (a scalar layer over the batch)
    # cannot grow elsewhere
    found = [(path.name, name) for path in sorted(SRC.glob("*.py")) if path.name != "shifted.py"
             for name, _ in _direction_readers(path)]
    assert not found, "ShiftBatch readers outside shifted.py (module, function): " + repr(found)
    assert not [node for node in ast.walk(ast.parse((SRC / "radial.py").read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom) and node.module in ("shifted", "problem")], \
        "radial.py imports from shifted.py or problem.py"


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


def _thread_locals(path):
    """Lines of a module that name threading.local or import it."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr == "local" \
                and isinstance(node.value, ast.Name) and node.value.id == "threading":
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "threading" \
                and any(alias.name == "local" for alias in node.names):
            lines.append(node.lineno)
    return lines


def test_only_problem_makes_thread_locals():
    # per-thread state of a sweep lives in problem.chunk_buffers, so that no
    # route keeps its own memory between chunks or sweeps
    found = [(path.name, line) for path in sorted(SRC.glob("*.py")) if path.name != "problem.py"
             for line in _thread_locals(path)]
    assert not found, "threading.local outside problem.py (module, line): " + repr(found)
    assert _thread_locals(SRC / "problem.py"), "chunk_buffers no longer keeps per-thread buffers"


def _reads(path, name):
    """Lines of a module that read the global `name`, bare or as an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr == name)]


def test_one_direction_batch_builder():
    # the statistics of a direction and the null-row convention live in one
    # place: shifted.unit_shift_batch constructs every ShiftBatch, and only
    # shifted.py reads the null-space tolerance
    built = [hit for path in sorted(SRC.glob("*.py")) for hit in _calls(path, ("ShiftBatch",))]
    assert [hit[:2] for hit in built] == [("shifted.py", "unit_shift_batch")], \
        "ShiftBatch constructions (module, function, callee, line): " + repr(built)
    assert _reads(SRC / "shifted.py", "NULL_TOL"), "shifted.py no longer reads NULL_TOL"
    found = [(path.name, line) for path in sorted(SRC.glob("*.py")) if path.name != "shifted.py"
             for line in _reads(path, "NULL_TOL")]
    assert not found, "NULL_TOL read outside shifted.py (module, line): " + repr(found)


def _raises_with(path, text):
    """Lines of a module whose `raise` builds a message holding `text`, in a
    string constant or an f-string part."""
    return [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Raise) and node.exc is not None
            and any(isinstance(c, ast.Constant) and isinstance(c.value, str) and text in c.value
                    for c in ast.walk(node.exc))]


# phrases of an integer rule's message, and the functions that must apply it
COUNT_PHRASES = ("must be an integer", "at least", "nonnegative integer", "positive integer", "needs M")
COUNTED = {"sample_sphere_batch", "_log_surface", "mode_radius_times_l1", "mass_closed_form", "mass_expansion",
           "expansion_coeff_exact", "concentration_prob", "tv_bound", "__post_init__", "log_gaussian_moment"}
# phrases of a real rule's message, and the functions that must apply it
REAL_PHRASES = ("must be finite", "positive and finite", "non-negative and finite", "requires beta", "needs beta")
REAL_CHECKED = {"mass_closed_form", "mass_expansion", "mode_radius_times_l1", "tv_bound", "__post_init__",
                "solve_fista", "criterion_coverage", "concentration_prob", "lasso_ball_volume", "_check_point",
                "make_problem"}


def test_one_owner_per_argument_rule():
    # problem.py owns the rule for a point's length (problem._check_point),
    # and _moments.py, which every numeric module may import, the rule for a
    # dimension, order or count (_moments._check_count) and the rule for a
    # real value, scalar or array, finite and maybe positive or non-negative
    # (_moments._check_real); other modules call them, and no multi-row
    # wrapper of unit_shift_batch restates its checks.  The CLI's argparse
    # types keep their own texts: they check outside input at the parse
    assert _raises_with(SRC / "problem.py", "must have length"), "problem.py no longer checks lengths"
    found = [(path.name, line) for path in sorted(SRC.glob("*.py")) if path.name != "problem.py"
             for line in _raises_with(path, "must have length")]
    assert not found, "length checks outside problem.py (module, line): " + repr(found)
    defined = [path.name for path in sorted(SRC.glob("*.py")) if "build_shift_batch" in _module_defs(path)]
    assert not defined, "build_shift_batch defined in: " + repr(defined)
    assert _raises_with(SRC / "_moments.py", "must be an integer"), "_moments.py no longer checks counts"
    found = [(path.name, phrase, line) for path in sorted(SRC.glob("*.py")) if path.name != "_moments.py"
             for phrase in COUNT_PHRASES for line in _raises_with(path, phrase)]
    assert not found, "integer rules outside _moments.py (module, phrase, line): " + repr(found)
    counted = {hit[1] for path in sorted(SRC.glob("*.py")) for hit in _calls(path, ("_check_count",))}
    missing = COUNTED - counted
    assert not missing, "functions that no longer call _check_count: " + repr(sorted(missing))
    assert _raises_with(SRC / "_moments.py", "finite"), "_moments.py no longer checks reals"
    found = [(path.name, phrase, line) for path in sorted(SRC.glob("*.py")) if path.name != "_moments.py"
             for phrase in REAL_PHRASES for line in _raises_with(path, phrase)]
    assert not found, "real rules outside _moments.py (module, phrase, line): " + repr(found)
    defined = [path.name for path in sorted(SRC.glob("*.py")) if "_check_positive" in _module_defs(path)]
    assert not defined, "_check_positive defined in: " + repr(defined)
    checked = {hit[1] for path in sorted(SRC.glob("*.py")) for hit in _calls(path, ("_check_real",))}
    missing = REAL_CHECKED - checked
    assert not missing, "functions that no longer call _check_real: " + repr(sorted(missing))


def test_one_estimate_builder():
    # every Z route feeds its chunks of log weights to partition._LogMean,
    # which alone exponentiates their mean and builds a PartitionEstimate;
    # no route passes its sweep's state out through a nested generator
    tree = ast.parse((SRC / "partition.py").read_text(encoding="utf-8"))
    methods = [node.name for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "_LogMean"
               for node in cls.body if isinstance(node, ast.FunctionDef)]
    assert "estimate" in methods, "partition._LogMean.estimate is gone"
    built = [hit for path in sorted(SRC.glob("*.py")) for hit in _calls(path, ("PartitionEstimate",))]
    assert [hit[:2] for hit in built] == [("partition.py", "estimate")], \
        "PartitionEstimate constructions (module, function, callee, line): " + repr(built)
    found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Nonlocal)]
    assert not found, "nonlocal in partition.py (lines): " + repr(found)


def _called(node):
    """The name a call node calls, bare or as an attribute; None for any other node."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    return None


def _is_lock_or_executor(node):
    name = _called(node) or ""
    return name in ("Lock", "RLock") or name.endswith("Executor")


def _module_level_pools(path):
    """Lines of a module that bind a lock or an executor outside any function."""
    lines = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr)) \
                    and child.value is not None:
                lines.extend(n.lineno for n in ast.walk(child.value) if _is_lock_or_executor(n))
            visit(child)

    visit(ast.parse(path.read_text(encoding="utf-8")))
    return lines


def _executors(path):
    """(line, whether it opens a `with`) of every ThreadPoolExecutor call of a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    in_with = {id(item.context_expr) for node in ast.walk(tree)
               if isinstance(node, (ast.With, ast.AsyncWith)) for item in node.items}
    return [(node.lineno, id(node) in in_with) for node in ast.walk(tree)
            if _called(node) == "ThreadPoolExecutor"]


def test_no_process_wide_pool():
    # each sweep of problem.map_chunks opens its own pool in a `with`, which
    # joins it when the sweep ends: no module keeps a lock or an executor,
    # and no executor is made where nothing joins it
    bound = [(path.name, line) for path in sorted(SRC.glob("*.py")) for line in _module_level_pools(path)]
    assert not bound, "module-level locks or executors (module, line): " + repr(bound)
    made = {path.name: _executors(path) for path in sorted(SRC.glob("*.py"))}
    assert made["problem.py"], "map_chunks no longer opens a ThreadPoolExecutor"
    found = [(module, line) for module, calls in made.items() for line, in_with in calls
             if module != "problem.py" or not in_with]
    assert not found, "ThreadPoolExecutor outside a `with` of problem.py (module, line): " + repr(found)


def _imports_of(path, module):
    """Lines of a module that import the package's `module` or a name from it."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            base = (node.module or "").removeprefix("polarlasso").lstrip(".")
            if base == module or (not base and any(alias.name == module for alias in node.names)):
                lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(alias.name == f"polarlasso.{module}" for alias in node.names):
            lines.append(node.lineno)
    return lines


def test_mode_search_builds_no_segment_batch():
    # solve_polar scores beta on its raw Gaussian rows, so lasso.py needs
    # nothing of shifted.py, and the batch builder keeps no option for it
    assert _imports_of(SRC / "partition.py", "shifted"), "the import check no longer sees partition.py's"
    found = _imports_of(SRC / "lasso.py", "shifted")
    assert not found, "lasso.py imports from shifted.py (lines): " + repr(found)
    params = list(inspect.signature(unit_shift_batch).parameters)
    assert params == ["prob", "l", "thetas"], "unit_shift_batch parameters: " + repr(params)
