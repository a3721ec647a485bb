"""Every process-wide memo of the package is bounded: no ``lru_cache`` in
any chordcheck module, at module level or on a class, has an unbounded
``maxsize``, and every module-level dict that the package fills as it
works is an oldest-first memo with a named ceiling that it keeps to."""

import functools
import importlib
import inspect
import pkgutil
import types

import chordcheck
from chordcheck import GlobalState, IdSpace, Schedule, converge, ideal_ring
from chordcheck import replay, simulate, state_digest, step_join

# each oldest-first dict memo, and the name of the constant that bounds it
DICT_MEMOS = {
    "chordcheck.explorer._digests": ("chordcheck.explorer", "DIGESTS_CEILING"),
}


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


def package_modules():
    """Every chordcheck module but ``__main__``, whose import runs the
    command line."""
    return [importlib.import_module(info.name)
            for info in pkgutil.iter_modules(chordcheck.__path__, "chordcheck.")
            if info.name != "chordcheck.__main__"]


def test_every_package_memo_has_a_ceiling():
    caches = {}
    for module in package_modules():
        caches.update({f"{module.__name__}.{name}": cache
                       for name, cache in lru_caches(module).items()})
    assert {"chordcheck.state._masks", "chordcheck.state._decode_field",
            "chordcheck.explorer._member_text", "chordcheck.properties._member_facts",
            "chordcheck.protocol._mask_rows", "chordcheck.properties._report",
            "chordcheck.protocol.shared_step"} <= caches.keys()
    assert unbounded(caches) == []


def test_every_dict_memo_has_a_ceiling_and_keeps_to_it():
    dicts = {f"{module.__name__}.{name}": value for module in package_modules()
             for name, value in vars(module).items() if type(value) is dict}
    before = {name: dict(value) for name, value in dicts.items()}
    # records of runs and their replays
    ring = ideal_ring(IdSpace(6), 2, [0, 9, 21, 33, 45, 57])
    ceilings = {name: getattr(importlib.import_module(module), constant)
                for name, (module, constant) in DICT_MEMOS.items()}
    for seed in range(40):
        trace = simulate(ring, Schedule(seed=seed), steps=100, churn="full")
        replay(trace)
        replay(converge(step_join(ring, 1 + seed % 8, 0), Schedule(seed=seed)))
        for name, ceiling in ceilings.items():
            assert len(dicts[name]) <= ceiling, name
    # then one distinct state per round
    for i in range(2 * max(ceilings.values()) + 1):
        low, high = i % 64, i // 64
        state_digest(GlobalState(IdSpace(6), 2, [], pending_notify=[(low, high)]))
        for name, ceiling in ceilings.items():
            assert len(dicts[name]) <= ceiling, name
    filled = {name for name, value in dicts.items() if value != before[name]}
    assert filled == DICT_MEMOS.keys()
    for name, ceiling in ceilings.items():
        assert type(ceiling) is int and len(dicts[name]) == ceiling, name
