"""Span tracing from outside symchar.

``Tracer.install()`` replaces chosen symchar functions by timing wrappers:
every module attribute and every ``from .x import y`` alias in the
``symchar.*`` namespaces that refers to the function, plus class attributes
of ``SymFunc``, ``Pairing`` and ``Cochain1``.  Spans are aggregated in memory
by (function, calling layer), since one stream can make millions of calls:
per key it keeps the call count, the total time and the self time (total
minus the time of child spans).  Install before the first query, so that
the hash closures built lazily by ``characters`` are wrapped too.
"""

from __future__ import annotations

import sys
import time

# (module, attribute) -> span name is "<module>.<attribute>".
FUNCTIONS = {
    "partitions": ("partitions_of", "contains"),
    "schur": (
        "lr_coefficient", "product_basis", "skew_basis", "coproduct_basis",
        "iterated_coproduct_basis", "outer_mul", "skew", "eval_monomials",
    ),
    "kronecker": ("character_table", "character", "kronecker_basis", "inner_mul"),
    "series": ("skew_by_series", "mul_by_series", "series_degree_term"),
    "convolution": ("is_laplace", "is_algebra_hom"),
    "hash_products": ("validate_spec",),
    "characters": ("newell_littlewood", "thibon_inner", "murnaghan_littlewood", "rational_mul", "branch"),
    "formats": ("parse_symfunc", "format_symfunc", "symfunc_json", "format_rational", "rational_json"),
    "vertex": ("bernstein",),
    "fgl": ("coproduct_from_fgl",),
}
# Cached functions whose computed (missed) values are counted as useful when nonzero.
USEFUL = {"schur.lr_coefficient", "kronecker.kronecker_basis"}
# (module, class, attribute, span name, counts memo misses)
METHODS = (
    ("schur", "SymFunc", "__init__", "schur.SymFunc.new", False),
    ("schur", "SymFunc", "__add__", "schur.SymFunc.add", False),
    ("convolution", "Pairing", "on_basis", "convolution.Pairing.on_basis", True),
    ("convolution", "Cochain1", "__call__", "convolution.Cochain1.call", False),
)


class Tracer:
    def __init__(self) -> None:
        self.stack = [["query", 0.0, "query"]]  # [span name, child time, layer]
        self.agg: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.counts: dict[str, list[int]] = {}  # -> [computed or missed, useful]
        self.cached: dict[str, object] = {}  # span name -> functools cache wrapper
        self.memo_owners: list = []  # Pairing and Cochain1 instances

    # -- wrappers ---------------------------------------------------------
    def wrap(self, name: str, fn, useful: bool = False, memo: bool = False):
        stack, agg, clock = self.stack, self.agg, time.perf_counter
        layer = name.split(".", 1)[0]
        count = self.counts.setdefault(name, [0, 0])
        info = getattr(fn, "cache_info", None) if useful else None

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, layer]
            stack.append(frame)
            if info is not None:
                before = info().misses
            elif memo:
                before = len(args[0]._memo)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec = agg.get((name, parent[2]))
                if rec is None:
                    rec = agg[(name, parent[2])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if info is not None:
                if info().misses > before:
                    count[0] += 1
                    count[1] += bool(result)
            elif memo and len(args[0]._memo) > before:
                count[0] += 1
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def _wrap_build_hash(self, build_hash):
        tracer = self

        def build(*args, **kwargs):
            return tracer.wrap("hash_products.product", build_hash(*args, **kwargs))

        return self.wrap("hash_products.build_hash", build)

    @staticmethod
    def _patch_aliases(original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname == "symchar" or modname.startswith("symchar."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)

    def install(self, extra: dict | None = None) -> None:
        """Wrap the layer functions (and ``extra``: span name -> (owner, attribute))."""
        import importlib

        mods = {m: importlib.import_module(f"symchar.{m}") for m in FUNCTIONS}
        for modname, attrs in FUNCTIONS.items():
            for attr in attrs:
                fn = getattr(mods[modname], attr)
                name = f"{modname}.{attr}"
                if hasattr(fn, "cache_info"):
                    self.cached[name] = fn
                self._patch_aliases(fn, self.wrap(name, fn, useful=name in USEFUL))
        build_hash = mods["hash_products"].build_hash
        self._patch_aliases(build_hash, self._wrap_build_hash(build_hash))
        for modname, cls, attr, name, memo in METHODS:
            klass = getattr(mods[modname], cls)
            setattr(klass, attr, self.wrap(name, getattr(klass, attr), memo=memo))
        owners = self.memo_owners
        for cls in (mods["convolution"].Pairing, mods["convolution"].Cochain1):
            init = cls.__init__

            def register(obj, *args, _init=init, **kwargs):
                _init(obj, *args, **kwargs)
                owners.append(obj)

            cls.__init__ = register
        for name, (owner, attr) in (extra or {}).items():
            fn = getattr(owner, attr)
            wrapped = self.wrap(name, fn)
            setattr(owner, attr, wrapped)
            self._patch_aliases(fn, wrapped)

    # -- results ----------------------------------------------------------
    def snapshot(self) -> dict:
        """Aggregates and memo-table counters, as JSON-ready data."""
        caches = {}
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("symchar"):
                for attr, value in vars(mod).items():
                    fn = value if hasattr(value, "cache_info") else getattr(value, "__wrapped__", None)
                    if hasattr(fn, "cache_info"):
                        caches[f"{modname}.{attr}"] = fn
        seen, hits, misses, entries = set(), 0, 0, 0
        for fn in caches.values():
            if id(fn) not in seen:
                seen.add(id(fn))
                ci = fn.cache_info()
                hits, misses, entries = hits + ci.hits, misses + ci.misses, entries + ci.currsize
        pairing_calls = sum(r[0] for (n, _), r in self.agg.items() if n == "convolution.Pairing.on_basis")
        pairing_misses = self.counts.get("convolution.Pairing.on_basis", [0, 0])[0]
        hits += pairing_calls - pairing_misses
        misses += pairing_misses
        entries += sum(len(o._memo) for o in self.memo_owners)
        cache_hits = {}
        for name, fn in self.cached.items():
            ci = fn.cache_info()
            cache_hits[name] = [ci.hits, ci.misses]
        return {
            "spans": [[n, caller, *rec] for (n, caller), rec in self.agg.items()],
            "counts": self.counts,
            "cache_hits": cache_hits,
            "memo": {"hits": hits, "misses": misses, "entries": entries},
        }
