"""Span tracing for the benchmark, installed from outside the package.

`install()` replaces the public functions listed in LAYERS with wrappers that
record one span per call: name, start, end, parent span and operation id.
Names imported into other modules are replaced where they are used, and
methods are wrapped on their class, so every caller goes through the wrapper.
Spans stay in memory and leave the process once, as JSON, when it ends.

A few wrappers also read problem sizes from the results' public attributes
(see Tracer.sizes), and `hnf` results are scanned for their largest entry.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# Span name -> the per-layer self-time metric it is charged to.  Every
# wrapped name appears here exactly once.
LAYERS = {
    "cli": {
        "main": "cli.self_s",
    },
    "lmfdb": {
        "fixture_entries": "lmfdb.snapshot_load_s",
        "fixture_manifest": "lmfdb.snapshot_load_s",
        "coverage_check": "lmfdb.fetch_s",
        "Catalog.fetch_range": "lmfdb.fetch_s",
        "Catalog.fetch_curve": "lmfdb.fetch_s",
        "Catalog.find_by_ainvs": "lmfdb.fetch_s",
        "record_from_entry": "lmfdb.record_s",
    },
    "elliptic": {
        "minimal_model": "elliptic.minimal_model_s",
        "minimal_model_from_ainvs": "elliptic.minimal_model_s",
        "match_curve_to_newform": "elliptic.match_s",
        "ap_via_counting": "elliptic.match_s",
        "two_torsion_rank": "elliptic.two_torsion_s",
    },
    "modsym": {
        "build_space": "modsym.build_s",
        "ModSymSpace.rational_eigenspaces": "modsym.eigenspaces_s",
        "ModSymSpace.hecke_on_coords": "modsym.hecke_s",
        "ModSymSpace.hecke_on_cuspidal": "modsym.hecke_s",
        "ModSymSpace.new_subspace": "modsym.new_subspace_s",
        "ModSymSpace.degeneracy_lower": "modsym.new_subspace_s",
        "ModSymSpace.atkin_lehner": "modsym.atkin_lehner_s",
    },
    "heckeforms": {
        "congruence_number": "heckeforms.rf_s",
        "isotypic_complement_on_dual": "heckeforms.rf_s",
        "hecke_algebra": "heckeforms.algebra_s",
        "HeckeAlgebra.newform_coordinates": "heckeforms.algebra_s",
        "HeckeAlgebra.hecke_matrix_on_dual": "heckeforms.dual_hecke_s",
    },
    "invariants": {
        "modular_degree": "invariants.degree_s",
        "degree_congruence_gap": "invariants.degree_s",
        "hecke_complement_rows": "invariants.complement_s",
    },
    "intlattice": {
        "hnf": "intlattice.hnf_s",
        "hnf_with_transform": "intlattice.hnf_s",
        "kernel": "intlattice.kernel_s",
        "solve_in_rowspace": "intlattice.solve_s",
        "RowSolver.solve": "intlattice.solve_s",
        "lattice_from_rows": "intlattice.lattice_ops_s",
        "lattice_sum": "intlattice.lattice_ops_s",
        "lattice_intersect": "intlattice.lattice_ops_s",
        "saturate": "intlattice.lattice_ops_s",
        "quotient_order": "intlattice.lattice_ops_s",
        "subspace_integer_points": "intlattice.lattice_ops_s",
        "snf": "intlattice.lattice_ops_s",
        "det": "intlattice.lattice_ops_s",
    },
    "periods": {
        "elliptic_period_lattice": "periods.agm_s",
        "newform_period_lattice": "periods.newform_lattice_s",
        "manin_constant_numeric": "periods.compare_s",
    },
    "certify": {
        "certify_manin": "certify.rules_s",
        "certify_stevens": "certify.rules_s",
        "evaluate_criteria": "certify.rules_s",
        "census": "certify.census_s",
    },
}

# The benchmark's own spans: one root per set-up and per operation, and the
# import of the package (in set-up, and in every cold CLI call).
ROOT = "bench"
ROOT_METRIC = "bench.self_s"
IMPORT = "import"
IMPORT_METRIC = "bench.import_s"
SETUP_OP = -1
# Precedes the spans of a traced CLI process on its stderr.
SPANS_MARKER = "PERFBENCH-SPANS "

# Call-count metrics: metric -> span names counted.
CALL_COUNTS = {
    "heckeforms.dual_hecke_calls": ("heckeforms.HeckeAlgebra.hecke_matrix_on_dual",),
    "invariants.complement_calls": ("invariants.hecke_complement_rows",),
    "intlattice.hnf_calls": ("intlattice.hnf", "intlattice.hnf_with_transform"),
    "intlattice.kernel_calls": ("intlattice.kernel",),
    "intlattice.solve_calls": ("intlattice.solve_in_rowspace",
                               "intlattice.RowSolver.solve"),
    "elliptic.minimal_model_calls": ("elliptic.minimal_model",),
    "lmfdb.records": ("lmfdb.record_from_entry",),
}


def span_metric() -> dict[str, str]:
    """Full span name (`module.name`) -> self-time metric."""
    out = {ROOT: ROOT_METRIC, IMPORT: IMPORT_METRIC}
    for mod, names in LAYERS.items():
        for name, metric in names.items():
            out[f"{mod}.{name}"] = metric
    return out


def max_entry_bits(mat) -> int:
    return max((abs(x).bit_length() for row in mat.entries for x in row),
               default=0)


class Tracer:
    """In-memory span recorder.  Single-threaded: the package is."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.current = -1
        self.op = SETUP_OP
        self.spaces: dict[int, object] = {}  # level -> ModSymSpace
        self.newform_counts: dict[int, int] = {}  # level -> rational newforms
        self.algebras: dict[int, object] = {}  # level -> HeckeAlgebra
        self.build_calls = 0
        self.spaces_built = 0
        self.max_entry_bits = 0

    def begin(self, name: str, start: float | None = None) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.monotonic() if start is None else start,
                           0.0, self.current, self.op])
        self.current = idx
        return idx

    def end(self, idx: int):
        span = self.spans[idx]
        span[2] = time.monotonic()
        self.current = span[3]

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                self.end(idx)

        return traced

    # -- hooks: read sizes from public attributes of arguments and results --

    def _on_space(self, args, space):
        self.build_calls += 1
        if self.spaces.get(space.level) is not space:
            self.spaces_built += 1
            self.spaces[space.level] = space

    def _on_eigenspaces(self, args, forms):
        self.newform_counts[args[0].level] = len(forms)

    def _on_algebra(self, args, alg):
        self.algebras[alg.level] = alg

    def _on_hnf(self, args, result):
        mat = result[0] if isinstance(result, tuple) else result
        self.max_entry_bits = max(self.max_entry_bits, max_entry_bits(mat))

    def sizes(self, level: int) -> dict:
        """Problem sizes at `level` reached so far in this process."""
        from manincert.heckeforms import sturm_bound

        space = self.spaces.get(level)
        alg = self.algebras.get(level)
        return {
            "level": level,
            "mu": space.mu if space is not None else None,
            "two_g": space.cuspidal_basis.rows if space is not None else None,
            "sturm": sturm_bound(level),
            "newforms": self.newform_counts.get(level),
            "precision": alg.precision if alg is not None else None,
        }

    def precision_ratio(self) -> float:
        return max((a.precision / a.sturm for a in self.algebras.values()),
                   default=0.0)

    def facts(self) -> dict:
        return {
            "build_calls": self.build_calls,
            "spaces_built": self.spaces_built,
            "max_entry_bits": self.max_entry_bits,
            "precision_ratio": self.precision_ratio(),
        }

    # -- installation -------------------------------------------------------

    def install(self):
        hooks = {
            "modsym.build_space": self._on_space,
            "modsym.ModSymSpace.rational_eigenspaces": self._on_eigenspaces,
            "heckeforms.hecke_algebra": self._on_algebra,
            "intlattice.hnf": self._on_hnf,
            "intlattice.hnf_with_transform": self._on_hnf,
        }
        package = [m for name, m in sys.modules.items()
                   if name == "manincert" or name.startswith("manincert.")]
        for mod_name, names in LAYERS.items():
            mod = importlib.import_module(f"manincert.{mod_name}")
            for name in names:
                full = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    fn = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(full, fn, hooks.get(full)))
                    continue
                orig = getattr(mod, name)
                wrapped = self.wrap(full, orig, hooks.get(full))
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)

    def export(self) -> dict:
        names: dict[str, int] = {}
        spans = []
        for name, start, end, parent, op in self.spans:
            spans.append([names.setdefault(name, len(names)), start, end,
                          parent, op])
        return {"names": list(names), "spans": spans, "facts": self.facts()}


def self_times(exported: list[dict]) -> tuple[dict[str, float], dict[str, int], float, int]:
    """Per-span-name self time and call count over exported span sets, the
    total duration of their root spans, and the number of spans that do not
    lie within their parent (a tracer fault; 0 when spans nest)."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    root_total = 0.0
    misnested = 0
    for ex in exported:
        names = ex["names"]
        spans = ex["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
                misnested += not spans[parent][1] <= start <= end <= spans[parent][2]
        for i, (nid, start, end, parent, _) in enumerate(spans):
            name = names[nid]
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                root_total += end - start
    return self_s, calls, root_total, misnested
