"""Every process-wide memo of the package is bounded: no ``lru_cache`` in
any chordcheck module, at module level or on a class, has an unbounded
``maxsize``."""

import functools
import importlib
import inspect
import pkgutil
import types

import chordcheck


def lru_caches(module):
    """The ``lru_cache`` wrappers among ``module``'s own globals and the
    attributes of its own classes, by name."""
    found = {}
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue  # imported, not defined here
        if inspect.isclass(value):
            found.update({f"{name}.{attr}": inner for attr, inner in vars(value).items()
                          if hasattr(inner, "cache_parameters")})
        elif hasattr(value, "cache_parameters"):
            found[name] = value
    return found


def unbounded(caches):
    return sorted(name for name, cache in caches.items()
                  if cache.cache_parameters()["maxsize"] is None)


def test_guard_flags_an_unbounded_cache():
    module = types.ModuleType("fake")
    exec("import functools\n"
         "@functools.lru_cache(maxsize=None)\n"
         "def forever(x): return x\n"
         "@functools.lru_cache(maxsize=8)\n"
         "def bounded(x): return x\n"
         "class Holder:\n"
         "    @functools.cache\n"
         "    def method(self): return 0\n",
         module.__dict__)
    caches = lru_caches(module)
    assert sorted(caches) == ["Holder.method", "bounded", "forever"]
    assert unbounded(caches) == ["Holder.method", "forever"]


def test_every_package_memo_has_a_ceiling():
    caches = {}
    for info in pkgutil.iter_modules(chordcheck.__path__, "chordcheck."):
        if info.name == "chordcheck.__main__":
            continue  # importing it runs the command line
        module = importlib.import_module(info.name)
        caches.update({f"{info.name}.{name}": cache for name, cache in lru_caches(module).items()})
    assert {"chordcheck.state._masks", "chordcheck.explorer._member_text",
            "chordcheck.properties._member_facts"} <= caches.keys()
    assert unbounded(caches) == []
