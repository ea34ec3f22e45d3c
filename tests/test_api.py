"""Package-wide API rules."""
import importlib
import inspect

import aht

#: Every comparison reads ``aht.DEFAULT_TOL``; no callable takes its own
#: tolerance record or a construction-time assertion flag.
KNOBS = {"tol", "hermitian", "unitary", "traceless"}

SUBMODULES = (
    "operators", "decoupling", "codes", "universality", "noise", "scenario", "verify", "cli",
)


def public_callables() -> dict:
    """Every public callable of ``aht`` and of its submodules' ``__all__``,
    plus each public class's own methods and ``__init__``, by qualified name."""
    objects = {f"aht.{n}": getattr(aht, n) for n in dir(aht) if not n.startswith("_")}
    for mod_name in SUBMODULES:
        mod = importlib.import_module(f"aht.{mod_name}")
        objects.update({f"aht.{mod_name}.{n}": getattr(mod, n) for n in mod.__all__})
    for qualname, obj in list(objects.items()):
        if inspect.isclass(obj):
            for attr in vars(obj):
                if attr == "__init__" or not attr.startswith("_"):
                    objects[f"{qualname}.{attr}"] = getattr(obj, attr)
    return {q: o for q, o in objects.items() if callable(o)}


def test_no_tolerance_or_assertion_parameters():
    offenders = []
    for qualname, obj in public_callables().items():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # builtins without a signature
            continue
        offenders += [f"{qualname}({p})" for p in params if p in KNOBS]
    assert not offenders
