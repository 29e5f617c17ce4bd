"""Layer tracing for the benchmark's traced passes.

Tracer wraps the entry points of each qsphere module (the layers) from
outside the package: it patches every qsphere module namespace, class and
module-level dict that holds a reference to an entry point, and restores
them on uninstall.  The program itself is not changed.

At each layer boundary (a call whose layer differs from its caller's) the
wrapper times the call, adds its duration to the caller's child time and
its self time (duration minus child time) to its layer, and keeps a span
(id, parent id, entry name, start, end) in memory if it lasted at least
MIN_SPAN_S.  Shorter calls, up to 400k a pass, still count in self times
and call counts; dropping their spans keeps the span file small and never
orphans a kept span, since a parent outlasts its children.  Calls inside
the same layer are only counted; they are already inside a timed span.
The scalar layer keeps no spans, because a pass makes millions of scalar
operations: it accumulates time and counts only.

Some entry points also feed per-layer counts: distinct keys for reuse
ratios (1 - distinct keys / calls, a property of the call stream rather
than of any cache) and pivots and stored nonzeros of Echelon.add.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import weakref
from time import perf_counter

ROOT_LAYER = "bench"
MIN_SPAN_S = 50e-6
LAYERS = ("scalars", "ncalg", "hopf", "linalg", "koszul", "hochschild",
          "duality", "checks")

_RF_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
           "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__")

# layer -> entry points, each "name" (module level) or "Class.method"
ENTRY_POINTS = {
    "scalars": tuple(f"RationalFunction.{op}" for op in _RF_OPS)
    + ("_pgcd", "q_bracket", "q_int_bracket"),
    "ncalg": ("AlgebraPreset.reduce_terms", "AlgebraPreset.mul_words",
              "AlgebraPreset.poly", "NCPoly.__add__", "NCPoly.__sub__",
              "NCPoly.__neg__", "NCPoly.__mul__", "NCPoly.__rmul__",
              "NCPoly.__pow__", "NCPoly.__eq__", "NCPoly.scale",
              "get_algebra", "normal_form", "multiply", "grade_decompose",
              "filtration_basis", "embed_podles", "express_in_podles",
              "parse_expr"),
    "hopf": ("Tensor.of", "Tensor.add_term", "Tensor.__add__",
             "Tensor.__sub__", "Tensor.__neg__", "Tensor.__mul__",
             "Tensor.__eq__", "Tensor.scale", "coproduct", "_cop_word",
             "b_coproduct_word", "b_coproduct", "b_coproduct_grouped",
             "counit", "antipode", "project_pi", "left_coaction",
             "coideal_membership", "rho", "rho_check"),
    "linalg": ("Echelon.reduce", "Echelon.add", "Echelon.contains",
               "Echelon.coordinates", "rank", "nullspace", "determinant"),
    "koszul": ("KoszulComplex.d1", "KoszulComplex.d2", "koszul_d2_d1_zero",
               "exactness_check", "nu_reduce", "nu_reduce_oracle",
               "nu_closed_form", "TruncatedMap.column_rank",
               "quotient_level_basis", "zeta_matrix", "ext_counit_module"),
    "hochschild": ("Cochain.eval_words", "LazyCochain.eval_words",
                   "eval_cochain", "eval_multi", "hochschild_b", "twisted_d",
                   "xi", "CharacterFunctional.on_word",
                   "CharacterFunctional.on_poly",
                   "CharacterFunctional.act_sphere_word",
                   "CharacterFunctional.act_qsl2_word", "character_action",
                   "cochains_equal", "argument_window", "random_cochain",
                   "random_argument_tuples", "weight_basis_words",
                   "h0_twisted_center", "h0_expected", "validate_character_b",
                   "sigma_map"),
    "duality": ("omega_membership", "omega_basis", "OmegaModule.act_left",
                "OmegaModule.act_right", "omega_product_check",
                "Functional.on_word", "Functional.__call__", "convolution",
                "haar_laurent", "beta_projection", "gamma_functional",
                "transes_check", "sigma_inverse_check",
                "sigma_inverse_apply"),
    "checks": ("check_character_action", "check_confluence",
               "check_conjugation_law", "check_convolution_transes",
               "check_ext_concentration", "check_h0_grid",
               "check_koszul_exactness", "check_nu_closed_forms",
               "check_omega_products", "check_sigma",
               "check_zeta_injectivity"),
}


class Tracer:
    """Spans, self times and counts of one traced pass.

    install() patches the entry points, uninstall() restores them.  Entry
    points missing from the program are listed in `absent` and the pass
    runs without them.
    """

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = {}
        self.spans = []
        self.absent = []
        self.independent = 0    # Echelon.add calls that found a new pivot
        self.rows_nnz = 0       # nonzeros stored in new Echelon rows
        self._keys = {"ncalg.AlgebraPreset.mul_words": set(),
                      "hopf._cop_word": set(),
                      "hochschild.eval_words": set()}
        self._serials = weakref.WeakKeyDictionary()
        self._next_serial = itertools.count(1)
        self._span_ids = itertools.count(1)
        # frame: [layer, child seconds, span id]
        self._stack = [[ROOT_LAYER, 0.0, 0]]
        self._patches = []

    # -- counts -----------------------------------------------------------

    def _serial(self, obj):
        """A number unique to obj for the whole pass; unlike id() it is
        never reused after obj is freed."""
        s = self._serials.get(obj)
        if s is None:
            s = self._serials[obj] = next(self._next_serial)
        return s

    def _observers(self, name):
        """Extra per-call bookkeeping: (before(args), after(args, result))."""
        if name == "ncalg.AlgebraPreset.mul_words":
            keys = self._keys[name]
            return (lambda a: keys.add((id(a[0]), a[1], a[2]))), None
        if name == "hopf._cop_word":
            keys = self._keys[name]
            return (lambda a: keys.add((id(a[0]), a[1]))), None
        if name.endswith("Cochain.eval_words"):
            keys = self._keys["hochschild.eval_words"]
            serial = self._serial
            return (lambda a: keys.add((serial(a[0]), tuple(a[1])))), None
        if name == "linalg.Echelon.add":
            def after(a, piv):
                if piv is not None:
                    self.independent += 1
                    self.rows_nnz += len(a[0].rows[piv])
            return None, after
        return None, None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer, name, fn):
        calls = self.calls
        calls[name] = 0
        stack = self._stack
        self_s = self.self_s
        spans = self.spans if layer != "scalars" else None
        span_ids = self._span_ids
        before, after = self._observers(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                before(args)
            top = stack[-1]
            if top[0] == layer:
                result = fn(*args, **kwargs)
            else:
                sid = next(span_ids)
                frame = [layer, 0.0, sid]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    dur = t1 - t0
                    self_s[layer] += dur - frame[1]
                    top[1] += dur
                    if spans is not None and dur >= MIN_SPAN_S:
                        spans.append((sid, top[2], name, t0, t1))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self):
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"qsphere.{layer}")
            except ModuleNotFoundError:
                modules[layer] = None
        namespaces = [m for n, m in sys.modules.items()
                      if (n == "qsphere" or n.startswith("qsphere."))
                      and m is not None]
        for layer, entries in ENTRY_POINTS.items():
            mod = modules[layer]
            for entry in entries:
                name = f"{layer}.{entry}"
                owner_name, _, attr = entry.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                orig = vars(owner).get(attr) if owner is not None else None
                if isinstance(orig, staticmethod):
                    wrapper = staticmethod(self._wrap(layer, name, orig.__func__))
                elif callable(orig):
                    wrapper = self._wrap(layer, name, orig)
                else:
                    self.absent.append(name)
                    continue
                if owner_name:
                    self._patch(owner, attr, orig, wrapper)
                else:
                    self._patch_everywhere(namespaces, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((setattr, owner, attr, orig))

    def _patch_everywhere(self, namespaces, orig, wrapper):
        """Replace every reference to orig held by a qsphere module
        namespace or by a dict stored in one (such as checks.CHECKS)."""
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is orig:
                    self._patch(ns, attr, orig, wrapper)
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if v is orig:
                            value[k] = wrapper
                            self._patches.append(
                                (dict.__setitem__, value, k, orig))

    def uninstall(self):
        while self._patches:
            restore, owner, key, orig = self._patches.pop()
            restore(owner, key, orig)

    # -- results ------------------------------------------------------------

    def count(self, *names):
        return sum(self.calls.get(n, 0) for n in names)

    def layer_metrics(self):
        """The per-layer metrics derivable from this pass (counts, ratios,
        self times); names follow BENCHMARK.json."""
        rf_ops = self.count(*(f"scalars.RationalFunction.{op}" for op in _RF_OPS))
        gcd = self.count("scalars._pgcd")
        adds = self.count("linalg.Echelon.add")
        mul = self.count("ncalg.AlgebraPreset.mul_words")
        cop = self.count("hopf._cop_word")
        ev = self.count("hochschild.Cochain.eval_words",
                        "hochschild.LazyCochain.eval_words")
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({
            "scalars.rf_ops": rf_ops,
            "scalars.gcd_calls": gcd,
            "scalars.gcd_share": _ratio(gcd, rf_ops),
            "linalg.echelon_add.calls": adds,
            "linalg.echelon_add.pivot_ratio": _ratio(self.independent, adds),
            "linalg.rows_nnz": self.rows_nnz,
            "ncalg.mul_words.calls": mul,
            "ncalg.mul_words.reuse_ratio": _reuse(
                len(self._keys["ncalg.AlgebraPreset.mul_words"]), mul),
            "ncalg.reduce_terms.calls": self.count("ncalg.AlgebraPreset.reduce_terms"),
            "hopf.cop_word.calls": cop,
            "hopf.cop_word.reuse_ratio": _reuse(len(self._keys["hopf._cop_word"]), cop),
            "hopf.antipode.calls": self.count("hopf.antipode"),
            "hopf.b_coproduct_word.calls": self.count("hopf.b_coproduct_word"),
            "koszul.nu_reduce.calls": self.count("koszul.nu_reduce"),
            "hochschild.eval_words.calls": ev,
            "hochschild.eval_words.reuse_ratio": _reuse(
                len(self._keys["hochschild.eval_words"]), ev),
            "hochschild.eval_multi.calls": self.count("hochschild.eval_multi"),
            "duality.beta_projection.calls": self.count("duality.beta_projection"),
            "duality.gamma_functional.calls": self.count("duality.gamma_functional"),
        })
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def _reuse(distinct, calls):
    return 1.0 - distinct / calls if calls else 0.0
