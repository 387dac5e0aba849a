"""Per-layer tracing of gl2lab from outside the library.

`install()` replaces each traced public function with a wrapper in every
``gl2lab.*`` module namespace that binds it (methods are patched on their
class), and returns a `Tracer` that counts calls and accumulates self time:
the wrapper's inclusive time minus the time spent in wrapped callees.  It
also counts memo-cache constructor calls and watches every ``check_cap``
binding for the largest size/cap fraction.  Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# metric prefix -> (module, qualified name); ``Class.attr`` patches the class.
TIMED = {
    "padic.matmul": ("gl2lab.padic", "LocalMatrix.__matmul__"),
    "padic.inverse": ("gl2lab.padic", "LocalMatrix.inverse"),
    "padic.from_integers": ("gl2lab.padic", "LocalMatrix.from_integers"),
    "padic.det_valuation": ("gl2lab.padic", "LocalMatrix.det_valuation"),
    "padic.k_of": ("gl2lab.padic", "k_of"),
    "padic.ell_min": ("gl2lab.padic", "ell_min"),
    "hecke.coset_key": ("gl2lab.hecke", "canonical_coset_rep"),
    "hecke.convolve": ("gl2lab.hecke", "convolve"),
    "hecke.double_coset": ("gl2lab.hecke", "double_coset_indicator"),
    "hecke.phi_support": ("gl2lab.hecke", "phi_support"),
    "hecke.tower_check": ("gl2lab.hecke", "tower_identity_check"),
    "hecke.centrality_check": ("gl2lab.hecke", "centrality_check"),
    "testfunc.phi_pnt": ("gl2lab.testfunc", "phi_pnt"),
    "testfunc.phi_branch": ("gl2lab.testfunc", "phi_branch"),
    "testfunc.c_r_char": ("gl2lab.testfunc", "c_r_char"),
    "ratfunc.add": ("gl2lab.ratfunc", "RationalFunctionT.__add__"),
    "tree.stabilizes": ("gl2lab.tree", "stabilizes"),
    "tree.fixed_set": ("gl2lab.tree", "fixed_set"),
    "tree.orbital_ratio": ("gl2lab.tree", "orbital_ratio"),
    "gl2group.matmul": ("gl2lab.gl2group", "MatGroup.matmul"),
    "gl2group.orbit_labels": ("gl2lab.gl2group", "MatGroup.orbit_labels"),
    "basechange.sigma_orbits": ("gl2lab.basechange", "sigma_orbits"),
    "basechange.bc_unit_identity": ("gl2lab.basechange", "bc_unit_identity"),
    "basechange.unit_group_exactness": ("gl2lab.basechange",
                                        "unit_group_exactness"),
    "finitegl2.induced_character": ("gl2lab.finitegl2", "induced_character"),
    "finitegl2.ss_trace_point": ("gl2lab.finitegl2", "ss_trace_point"),
    "finitegl2.fixed_surjections": ("gl2lab.finitegl2", "fixed_surjections"),
    "cyclotomic.mul": ("gl2lab.cyclotomic", "CyclotomicValue.__mul__"),
    "cyclotomic.zeta": ("gl2lab.cyclotomic", "CyclotomicValue.zeta"),
    "curves.enumerate_curves": ("gl2lab.curves", "enumerate_curves"),
    "curves.level_m_count": ("gl2lab.curves", "level_m_count"),
    "curves.isogeny_classes": ("gl2lab.curves", "isogeny_classes"),
    "curves.boundary_orbit_report": ("gl2lab.curves", "boundary_orbit_report"),
    "cli.main": ("gl2lab.cli", "main"),
}

# cache name -> (constructor or factory whose calls are counted,
#                cache object as (module, attribute path)).
# Hits are constructor calls minus entries left in the cache.
COUNTED_CACHES = {
    "ctx": (("gl2lab.padic", "get_context"), ("gl2lab.padic", "_CTX_CACHE")),
    "ring_tables": (("gl2lab.gl2group", "RingTables.__new__"),
                    ("gl2lab.gl2group", "RingTables._cache")),
    "mat_group": (("gl2lab.gl2group", "MatGroup.__new__"),
                  ("gl2lab.gl2group", "MatGroup._cache")),
    "finite_gl2": (("gl2lab.finitegl2", "FiniteGL2.__new__"),
                   ("gl2lab.finitegl2", "FiniteGL2._cache")),
    "small_field": (("gl2lab.curves", "SmallField.__new__"),
                    ("gl2lab.curves", "SmallField._cache")),
    "orbit_labels": (("gl2lab.basechange", "orbit_label_data"),
                     ("gl2lab.basechange", "_ORBIT_CACHE")),
}
# functools.lru_cache objects report their own hits.
LRU_CACHES = {
    "cyclotomic_polynomial": ("gl2lab.cyclotomic", "cyclotomic_polynomial"),
    "reduction_rows": ("gl2lab.cyclotomic", "_reduction_rows"),
}
CACHE_NAMES = list(COUNTED_CACHES) + list(LRU_CACHES)


def _resolve(module, path):
    obj = sys.modules[module]
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


class Tracer:
    """Call counts and self times of the wrapped functions of one process."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.cache_calls = {}
        self.curves_q = set()
        self.curves_returned = 0
        self.weierstrass_built = 0
        self.cap_fraction_max = 0.0
        self.missing = []
        self._stack = [0.0]

    # -- wrapping ---------------------------------------------------------

    def _timed(self, name, fn, after=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls[name] = 0
        self_s[name] = 0.0
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                calls[name] += 1
                self_s[name] += dt - children
                stack[-1] += dt
            if after is not None:
                after(args, kwargs, out)
            return out
        return wrapper

    def _counted(self, name, fn):
        counts = self.cache_calls
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, module, qualname, make):
        """Replace `qualname` by make(original) wherever gl2lab binds it."""
        try:
            owner, orig = _resolve(module, qualname)
        except (KeyError, AttributeError):
            self.missing.append(f"{module}.{qualname}")
            return
        attr = qualname.rsplit(".", 1)[-1]
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
            return
        new = make(orig)
        for modname, mod in list(sys.modules.items()):
            if modname == "gl2lab" or modname.startswith("gl2lab."):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, new)

    def _after_enumerate(self, args, kwargs, out):
        self.curves_q.add(args[0] if args else kwargs["q"])
        self.curves_returned += len(out)

    def _count_weierstrass(self, init):
        @functools.wraps(init)
        def wrapper(*args, **kwargs):
            self.weierstrass_built += 1
            return init(*args, **kwargs)
        return wrapper

    def _watch_cap(self, check_cap):
        from gl2lab.errors import max_elems
        sig = inspect.signature(check_cap)

        @functools.wraps(check_cap)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            size = bound.arguments["size"]
            cap = max_elems(bound.arguments["default"])
            self.cap_fraction_max = max(self.cap_fraction_max, size / cap)
            return check_cap(*args, **kwargs)
        return wrapper

    # -- results ----------------------------------------------------------

    def cache_stats(self):
        """{name: (entries, hits)}; a cache that cannot be read is missing."""
        out = {}
        for name, (_, (module, path)) in COUNTED_CACHES.items():
            try:
                entries = len(_resolve(module, path)[1])
            except (KeyError, AttributeError):
                self.missing.append(f"{module}.{path}")
                entries = 0
            out[name] = (entries, self.cache_calls.get(name, 0) - entries)
        for name, (module, path) in LRU_CACHES.items():
            try:
                info = _resolve(module, path)[1].cache_info()
            except (KeyError, AttributeError):
                self.missing.append(f"{module}.{path}")
                out[name] = (0, 0)
                continue
            out[name] = (info.currsize, info.hits)
        return out

    def report(self):
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "caches": self.cache_stats(),
            "curves_distinct_q": len(self.curves_q),
            "curves_returned": self.curves_returned,
            "weierstrass_built": self.weierstrass_built,
            "cap_fraction_max": self.cap_fraction_max,
            "missing": sorted(set(self.missing)),
        }


def install():
    """Wrap the traced functions of an imported gl2lab; return the Tracer."""
    import gl2lab.campaigns  # noqa: F401  (binds every layer)
    import gl2lab.cli  # noqa: F401
    tr = Tracer()
    for name, (module, qualname) in TIMED.items():
        after = tr._after_enumerate if name == "curves.enumerate_curves" else None
        tr._patch(module, qualname,
                  lambda fn, name=name, after=after: tr._timed(name, fn, after))
    for name, ((module, qualname), _) in COUNTED_CACHES.items():
        tr._patch(module, qualname, lambda fn, name=name: tr._counted(name, fn))
    tr._patch("gl2lab.curves", "WeierstrassCurve.__init__", tr._count_weierstrass)
    tr._patch("gl2lab.errors", "check_cap", tr._watch_cap)
    return tr
