"""The names other code reads from the package: every module's
``__all__`` and the package exports resolve, and the benchmark tracer,
which rebinds the functions it wraps by name, installs over them and
leaves every module as it found it."""

import importlib
import os
import pkgutil
import sys

import fibredburnside

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _package_modules():
    return [importlib.import_module(f"fibredburnside.{m.name}")
            for m in pkgutil.iter_modules(fibredburnside.__path__)
            if m.name != "__main__"]


def test_every_exported_name_resolves():
    modules = _package_modules()
    assert {m.__name__.rpartition(".")[2] for m in modules} >= {
        "groups", "goursat", "monomial", "fibred", "hat", "sampling"}
    for module in modules:
        missing = [n for n in getattr(module, "__all__", ())
                   if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)
    # the package exports are the public names of its modules
    public = {n for m in modules for n in getattr(m, "__all__", ())}
    exports = {n for n in vars(fibredburnside) if not n.startswith("_")}
    assert exports - public - {m.__name__.rpartition(".")[2]
                               for m in modules} == set()


def test_the_benchmark_tracer_installs_over_every_traced_name():
    sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
    try:
        import tracer
    finally:
        sys.path.pop(0)
    modules = _package_modules()
    before = [dict(vars(m)) for m in modules]
    t = tracer.Tracer()
    # install reads every name of tracer.LAYERS, and fails on one that is
    # gone; each traced name must have been rebound where it is defined
    t.install()
    try:
        rebound = {(m.__name__, attr) for m, attr, _ in t._rebound}
        for layer, names in tracer.LAYERS.items():
            for name in names:
                assert (f"fibredburnside.{layer}", name) in rebound, name
    finally:
        t.uninstall()
    assert [dict(vars(m)) for m in modules] == before
