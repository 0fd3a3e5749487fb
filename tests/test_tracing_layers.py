"""Every name the benchmark's tracer wraps still exists in the package.

perfbench/tracing.py lists in LAYERS the functions and `Class.method`s it
replaces with timing wrappers, by module.  A name deleted from the package
would only fail once a traced benchmark ran; this loads the tracer's table
as it is and resolves each entry in `manincert.<module>`.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


def unresolved(layers: dict) -> list[str]:
    """The LAYERS entries that name nothing in their manincert module."""
    missing = []
    for mod_name, names in layers.items():
        mod = importlib.import_module(f"manincert.{mod_name}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                ok = meth in vars(getattr(mod, cls_name, object))
            else:
                ok = callable(getattr(mod, name, None))
            if not ok:
                missing.append(f"{mod_name}.{name}")
    return missing


def test_every_traced_name_resolves():
    layers = load_layers()
    assert layers and unresolved(layers) == []


def test_guard_sees_a_deleted_name(monkeypatch):
    """A deleted function and a deleted method both show up."""
    from manincert import invariants, modsym

    monkeypatch.delattr(invariants, "hecke_complement_rows")
    monkeypatch.delattr(modsym.ModSymSpace, "atkin_lehner")
    assert unresolved(load_layers()) == ["modsym.ModSymSpace.atkin_lehner",
                                         "invariants.hecke_complement_rows"]
