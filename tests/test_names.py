"""Static guard against undefined module-level names in the package sources.

A global referenced only inside a function raises ``NameError`` at call time,
not at import, so a path that no test reaches can carry one unnoticed.  The
project has no linter dependency, so this walks each module's symbol table
(stdlib ``symtable``) and flags every global that a nested scope reads but
the module neither assigns, imports nor defines, and that is not a builtin.
The symbol tables do not see ``__all__``, so its entries are checked against
the imported package.
"""

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
