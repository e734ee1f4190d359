"""Spans around calls into picstab's public functions, and the per-layer metrics.

``Tracer.install()`` replaces each traced function in every ``picstab``
module namespace that binds it (``from ... import`` makes extra bindings),
and each traced method on its class.  A span records its name, start, end,
parent span and one optional number taken from the arguments or result.
Spans stay in memory; ``summarize`` turns them into additive totals, which
``merge`` adds up across processes and ``finalize`` turns into the metrics
named in BENCHMARK.json.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

ELIM = ("rref", "rank", "kernel_basis", "solve", "column_space_basis", "inverse", "is_invertible")


def _dims(m):
    return m.rows * m.cols


# (module, function, span name, number taken from (args, result) or None)
FUNCTIONS = [
    ("exactlin", "fq_make", "exactlin.fq_make", None),
    *[("exactlin", f, f"exactlin.{f}", lambda a, r: _dims(a[0])) for f in ELIM if f != "solve"],
    ("exactlin", "solve", "exactlin.solve", lambda a, r: a[0].rows * (a[0].cols + a[1].cols)),
    ("exactlin", "smith_normal_form", "exactlin.smith_normal_form", None),
    ("groups", "all_subgroups", "groups.all_subgroups", lambda a, r: len(r)),
    ("groups", "sylow_subgroup", "groups.sylow_subgroup", None),
    ("modrep", "submodule", "modrep.submodule", None),
    ("modrep", "tensor", "modrep.tensor", lambda a, r: a[0].dim * a[1].dim),
    ("modrep", "strip_projectives", "modrep.strip_projectives", lambda a, r: r[1].dim),
    ("modrep", "pims", "modrep.pims", None),
    ("modrep", "indecomposable_summands", "modrep.indecomposable_summands", None),
    ("modrep", "hom_space", "modrep.hom_space", lambda a, r: a[0].dim * a[1].dim),
    ("modrep", "projective_cover", "modrep.projective_cover", None),
    ("modrep", "syzygy", "modrep.syzygy", None),
    ("modrep", "stable_hom", "modrep.stable_hom", None),
    ("modrep", "module_iso", "modrep.module_iso", lambda a, r: int(r is not None)),
    ("picard", "t_group", "picard.t_group", None),
    ("picard", "restriction_raw", "picard.restriction_raw", None),
    ("picard", "verify_registry", "picard.verify_registry", None),
    ("treecalc", "compute_t", "treecalc.compute_t", None),
    ("treecalc", "t_level_maps", "treecalc.t_level_maps", None),
    ("treecalc", "aut_level_maps", "treecalc.aut_level_maps", None),
    ("abgrp", "ab_kernel", "abgrp.ab_kernel", None),
    ("abgrp", "ab_cokernel", "abgrp.ab_cokernel", None),
    ("abgrp", "presentation_normalize", "abgrp.presentation_normalize", None),
    ("components", "p_components_finite", "components.p_components_finite", None),
    ("components", "stable_end_decomposition", "components.stable_end_decomposition", None),
    ("recipes", "build_recipe", "recipes.build_recipe", None),
    ("recipes", "parse_recipe", "cli.parse", None),
    *[("cli", f, "cli.parse", None)
      for f in ("parse_field", "parse_group", "parse_construction", "_load_input")],
    *[("cli", f, "cli.render", None) for f in ("render_json", "render_text", "_emit")],
]


def _matmul_name(a):
    return "exactlin.matmul_prime" if a[0].field.e == 1 else "exactlin.matmul_ext"


def _matmul_mults(a, r):
    e = a[0].field.e
    return a[0].rows * a[0].cols * a[1].cols * e * e


# (module, class, method, span name or namer, number)
METHODS = [
    ("exactlin", "FqMatrix", "__matmul__", _matmul_name, _matmul_mults),
    ("modrep", "GModule", "__init__", "modrep.gmodule_init", None),
    ("picard", "TGroupData", "identify", "picard.identify", None),
]


class Tracer:
    """Records spans, nested by call order, in one process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def _wrap(self, fn, name, number):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            label = name(args) if callable(name) else name
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, None)
                raise
            end = clock()
            stack.pop()
            spans[idx] = (label, start, end, parent, number(args, result) if number else None)
            return result

        return traced

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "picstab" or name.startswith("picstab.")}
        for mod_name, attr, name, number in FUNCTIONS:
            orig = getattr(mods[f"picstab.{mod_name}"], attr)
            wrapped = self._wrap(orig, name, number)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
        for mod_name, cls_name, attr, name, number in METHODS:
            cls = getattr(mods[f"picstab.{mod_name}"], cls_name)
            setattr(cls, attr, self._wrap(getattr(cls, attr), name, number))

    def reset(self) -> None:
        self.spans.clear()


def summarize(spans) -> dict:
    """Additive per-layer totals from one process's span list."""
    n = len(spans)
    child_time = [0.0] * n
    splits_below = set()  # spans with an indecomposable_summands child
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == "modrep.indecomposable_summands":
                splits_below.add(parent)
    out: dict = defaultdict(float)

    def parent_name(i):
        p = spans[i][3]
        return spans[p][0] if p >= 0 else None

    for i, (name, start, end, parent, value) in enumerate(spans):
        self_s = end - start - child_time[i]
        short = name.split(".", 1)[1] if name.startswith("exactlin.") else None
        if short in ELIM:
            out["exactlin.elim.self_s"] += self_s
            if parent_name(i) not in _ELIM_NAMES:
                out["exactlin.elim.calls"] += 1
                out["exactlin.elim.cells"] += value or 0
            if short == "kernel_basis" and parent_name(i) == "modrep.indecomposable_summands":
                out["modrep.fitting.candidates"] += 1
            if short == "is_invertible" and parent_name(i) == "modrep.module_iso":
                out["modrep.module_iso.invertible_tries"] += 1
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        if name in _NUMBER_KEYS:
            key = _NUMBER_KEYS[name]
            if key.endswith("max_dim"):
                out[key] = max(out[key], value or 0)
            else:
                out[key] += value or 0
        if name == "modrep.pims" and i in splits_below:
            out["modrep.pims.misses"] += 1
        if name == "modrep.indecomposable_summands" and parent_name(i) == name:
            out["modrep.fitting.split_parts"] += 1
        if name == "modrep.module_iso" and parent_name(i) == "picard.identify":
            out["picard.identify.iso_tries"] += 1
    return dict(out)


_ELIM_NAMES = {f"exactlin.{f}" for f in ELIM}
_NUMBER_KEYS = {
    "exactlin.matmul_prime": "exactlin.matmul_prime.mults",
    "exactlin.matmul_ext": "exactlin.matmul_ext.mults",
    "groups.all_subgroups": "groups.all_subgroups.subgroups",
    "modrep.tensor": "modrep.tensor.max_dim",
    "modrep.strip_projectives": "modrep.strip_projectives.removed_dim",
    "modrep.hom_space": "modrep.hom_space.unknowns",
    "modrep.module_iso": "modrep.module_iso.found",
}


def merge(totals: list[dict]) -> dict:
    """Add per-process totals; maxima stay maxima."""
    out: dict = defaultdict(float)
    for t in totals:
        for key, val in t.items():
            out[key] = max(out[key], val) if key.endswith("max_dim") else out[key] + val
    return dict(out)


def finalize(raw: dict, names: list[str]) -> dict:
    """Every per-layer metric in ``names``, zero where the layer was idle."""
    raw = dict(raw)
    cand = raw.get("modrep.fitting.candidates", 0)
    # a split gives two recursive calls
    raw["modrep.fitting.split_ratio"] = raw.get("modrep.fitting.split_parts", 0) / 2 / cand if cand else 0.0
    calls = raw.get("modrep.module_iso.calls", 0)
    raw["modrep.module_iso.found_ratio"] = raw.get("modrep.module_iso.found", 0) / calls if calls else 0.0
    if "cli.process_s" in raw:
        raw["cli.startup_s"] = raw["cli.process_s"] - raw.get("cli.command_s", 0.0)
    return {name: float(raw.get(name, 0.0)) for name in names}
