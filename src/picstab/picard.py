"""The T-group registry: structures of T(G) and of the stable automorphisms of k.

For each supported finite group the registry stores the abelian-group
structure of the group of invertible stable module classes together with
explicit generator modules, every one of which is re-verified by module
arithmetic (endotriviality plus the stated order).  Restriction maps between
registry entries are computed by actually restricting generator modules and
identifying their stable classes among the target's elements.

Closed forms for T of the profiles Z x A and Z^2 x A are instantiated from
the registry data of the finite part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .abgrp import AbHom, FgAbelian, ab_direct_sum, hom_from_exponents, presentation_normalize
from .exactlin import Fq, ZMatrix, fq_make
from .groups import FiniteGroup, GroupMono, build_group, is_abelian, p_parts
from . import modrep
from .modrep import GModule, is_endotrivial, restrict, stable_iso, strip_projectives, tate_h0
from .recipes import build_recipe


class UnsupportedGroup(ValueError):
    pass


class UnsupportedProfile(ValueError):
    pass


class IdentificationFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class TGen:
    """A generator of T(G): a label, stated order (0 = infinite), and a recipe."""

    label: str
    order: int
    recipe: tuple | None  # None: cited from the literature, not constructible here

    @property
    def constructible(self) -> bool:
        return self.recipe is not None


@dataclass(frozen=True)
class TGroupData:
    group: FiniteGroup
    field: Fq
    gens: tuple[TGen, ...]
    structure: FgAbelian

    @property
    def raw_orders(self) -> tuple[int, ...]:
        return tuple(g.order for g in self.gens)

    def generator_module(self, i: int) -> GModule:
        gen = self.gens[i]
        if not gen.constructible:
            raise UnsupportedGroup(
                f"generator {gen.label!r} of T({self.group.name}) is cited from the "
                "classification literature and is not reconstructed here"
            )
        return build_recipe(self.group, self.field, gen.recipe).relabel(gen.label)

    def element_module(self, exponents) -> GModule:
        """A stripped representative of the class with the given generator exponents."""
        mod = modrep.trivial_module(self.group, self.field)
        for i, e in enumerate(exponents):
            if e:
                gen = self.generator_module(i)
                for _ in range(e):
                    mod, _ = strip_projectives(modrep.tensor(mod, gen))
        core, _ = strip_projectives(mod)
        return core

    def identify(self, module: GModule) -> tuple[int, ...]:
        """Exponents of the stable class of the module, by comparing against all elements."""
        if any(o == 0 for o in self.raw_orders):
            raise IdentificationFailed(
                f"T({self.group.name}) is infinite; cannot enumerate elements"
            )
        core, _ = strip_projectives(module)
        reps = self._cache().setdefault("reps", {})
        from itertools import product as iproduct

        for exps in iproduct(*(range(o) for o in self.raw_orders)):
            rep = reps.get(exps)
            if rep is None:
                rep = self.element_module(exps)
                reps[exps] = rep
            if modrep.module_iso(core, rep) is not None:
                return exps
        raise IdentificationFailed(
            f"stable class of {module.label} not found in T({self.group.name})"
        )

    def _cache(self) -> dict:
        return self.group._cache.setdefault(("tgroup", self.field), {})


@dataclass(frozen=True)
class StableAutProfile:
    """Structure of the stable automorphism group of the trivial module."""

    group_name: str
    structure: FgAbelian | None  # None: not determined at this scale
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "group": self.group_name,
            "structure": self.structure.to_json() if self.structure else None,
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# family detection


def _is_klein_four(g: FiniteGroup) -> bool:
    return g.order == 4 and all(g.element_order(x) <= 2 for x in range(g.order))


def _is_quaternion8(g: FiniteGroup) -> bool:
    if g.order != 8 or is_abelian(g):
        return False
    return sum(1 for x in range(8) if g.element_order(x) == 2) == 1


def _cyclic_times_cyclic_split(g: FiniteGroup, p: int) -> tuple[int, int] | None:
    """(p^a, m) when g is abelian with cyclic Sylow p-part and cyclic p'-part."""
    if not is_abelian(g):
        return None
    pa, m = p_parts(g.order, p)
    has_p = any(g.element_order(x) == pa for x in range(g.order))
    has_m = any(g.element_order(x) == m for x in range(g.order))
    return (pa, m) if has_p and has_m else None


@lru_cache(maxsize=None)
def t_group(group: FiniteGroup, field: Fq) -> TGroupData:
    """Structure of T(G) with explicit generators, by the registry rules."""
    p, q = field.p, field.q
    gens: list[TGen] = []
    if group.order % p:
        pass  # char k does not divide |G|: the stable category vanishes
    elif _is_quaternion8(group):
        gens.append(TGen("Omega k", 4, ("syzygy", ("trivial",))))
        if (q - 1) % 3 == 0:
            # the 3-dimensional module of the Carlson-Thevenaz classification,
            # present when k has a cube root of unity; cited, not reconstructed
            gens.append(TGen("W3 (Carlson-Thevenaz)", 2, None))
    elif _is_klein_four(group):
        gens.append(TGen("Omega k", 0, ("syzygy", ("trivial",))))
    else:
        split = _cyclic_times_cyclic_split(group, p)
        if split is None:
            raise UnsupportedGroup(
                f"{group.name}: T is tabulated only for cyclic groups, the Klein four "
                "group, Q8, and products C_(p^a) x C_m"
            )
        pa, m = split
        c = math.gcd(m, q - 1)
        if c > 1:
            gens.append(TGen("chi", c, ("character", 1)))
        if pa >= 3:
            gens.append(TGen("Omega k", 2, ("syzygy", ("trivial",))))
    structure, _, _ = presentation_normalize([g.order for g in gens])
    return TGroupData(group, field, tuple(gens), structure)


def stable_aut(group: FiniteGroup, field: Fq) -> StableAutProfile:
    """(k/|G|k)^x: the unit group of Tate H^0, i.e. k^x when char k divides |G|."""
    h0 = tate_h0(group, field)
    structure = FgAbelian.cyclic(h0.unit_group_order)
    return StableAutProfile(group.name, structure)


# ---------------------------------------------------------------------------
# restriction between registry entries


def restriction_raw(src: TGroupData, mono: GroupMono, tgt: TGroupData) -> ZMatrix:
    """Exponent matrix of restriction on the raw (per-generator) coordinates.

    Every source generator module is built, restricted along the mono, and
    identified among the target's elements; column i holds the exponents of
    the class of the restricted i-th generator.
    """
    if mono.source != tgt.group or mono.target != src.group:
        raise UnsupportedGroup("mono endpoints do not match the registry entries")
    if src.field != tgt.field:
        raise UnsupportedGroup("registry entries over different fields")
    cols = []
    for i in range(len(src.gens)):
        mod = src.generator_module(i)
        res = restrict(mod, mono)
        cols.append(tgt.identify(res))
    return ZMatrix(
        [[cols[i][j] for i in range(len(src.gens))] for j in range(len(tgt.gens))],
        cols=len(src.gens),
    )


def restriction_on_t(src: TGroupData, mono: GroupMono, tgt: TGroupData) -> AbHom:
    """The map T(src) -> T(tgt) induced by restricting along the mono."""
    return hom_from_exponents(src.raw_orders, tgt.raw_orders, restriction_raw(src, mono, tgt))


# ---------------------------------------------------------------------------
# infinite profiles (closed forms)


@dataclass(frozen=True)
class InfiniteTGroup:
    name: str
    finite_part: FiniteGroup
    field: Fq
    structure: FgAbelian
    generated_by: tuple[str, ...]
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "profile": self.name,
            "finite_part": self.finite_part.name,
            "field": {"p": self.field.p, "deg": self.field.e},
            "structure": self.structure.to_json(),
            "generated_by": list(self.generated_by),
            "notes": list(self.notes),
        }


def _tor_p_additive(field: Fq) -> FgAbelian:
    """The additive p-torsion of k: all of k in characteristic p, i.e. (Z/p)^e."""
    return FgAbelian.from_factors([field.p] * field.e)


def infinite_profile(name: str, finite_part, field: Fq) -> tuple[InfiniteTGroup, StableAutProfile]:
    """Closed forms for T and stable Aut of Z x A and Z^2 x A (char k | |A|)."""
    a = build_group(finite_part)
    if name not in ("Z_times", "Z2_times"):
        raise UnsupportedProfile(f"unknown profile {name!r}")
    if a.order % field.p:
        raise UnsupportedProfile("profiles require char k to divide |A|")
    units = FgAbelian.cyclic(field.q - 1)
    t_a = t_group(a, field)
    if name == "Z_times":
        structure = ab_direct_sum([units, t_a.structure])
        gens = ("rank-1 lattices", f"modules inflated from {a.name}")
        t_out = InfiniteTGroup(f"Z x {a.name}", a, field, structure, gens)
        saut = StableAutProfile(
            f"Z x {a.name}",
            ab_direct_sum([units, _tor_p_additive(field)]),
            ("units of k/|A|k plus the additive p-torsion of k",),
        )
        return t_out, saut
    structure = ab_direct_sum([units, units, _tor_p_additive(field), t_a.structure])
    gens = (
        "Hom(Z x Z, units of k/|A|k)",
        "additive p-torsion classes (not stably of finite rank)",
        f"modules inflated from {a.name}",
    )
    t_out = InfiniteTGroup(f"Z^2 x {a.name}", a, field, structure, gens)
    saut = StableAutProfile(
        f"Z^2 x {a.name}",
        None,
        ("the stable automorphisms of k for Z^2 x A are not pinned down here",),
    )
    return t_out, saut


# ---------------------------------------------------------------------------
# self-verification


BUILTIN_PAIRS: tuple[tuple[dict, tuple[int, int]], ...] = (
    ({"cyclic": 2}, (2, 1)),
    ({"cyclic": 2}, (2, 2)),
    ({"cyclic": 3}, (2, 1)),
    ({"cyclic": 3}, (3, 1)),
    ({"cyclic": 4}, (2, 1)),
    ({"klein4": True}, (2, 1)),
    ({"cyclic": 6}, (2, 1)),
    ({"cyclic": 6}, (3, 1)),
    ({"cyclic": 6}, (2, 2)),
    ({"quaternion8": True}, (2, 1)),
)


def _syzygy_power_class(group: FiniteGroup, field: Fq, n: int) -> GModule:
    mod = modrep.trivial_module(group, field)
    for _ in range(n):
        mod = modrep.syzygy(mod)
    return mod


def verify_generator(tgd: TGroupData, i: int) -> dict:
    """Check endotriviality and the stated order of one registry generator."""
    gen = tgd.gens[i]
    out = {"label": gen.label, "order": gen.order, "checked": False, "ok": None}
    if not gen.constructible:
        out["note"] = "cited from the literature; skipped"
        return out
    mod = tgd.generator_module(i)
    ok = is_endotrivial(mod)
    k = modrep.trivial_module(tgd.group, tgd.field)
    if gen.recipe == ("syzygy", ("trivial",)):
        # orders of syzygy classes via the syzygy chain, which stays small
        if gen.order == 0:
            ok = ok and all(
                not stable_iso(_syzygy_power_class(tgd.group, tgd.field, n), k)
                for n in range(1, 4)
            )
        else:
            ok = ok and stable_iso(_syzygy_power_class(tgd.group, tgd.field, gen.order), k)
            ok = ok and all(
                not stable_iso(_syzygy_power_class(tgd.group, tgd.field, n), k)
                for n in range(1, gen.order)
            )
            # bridge: the tensor square agrees with the second syzygy stably
            if gen.order > 2 and mod.dim**2 <= 100:
                ok = ok and stable_iso(
                    modrep.tensor(mod, mod), _syzygy_power_class(tgd.group, tgd.field, 2)
                )
    else:
        power = modrep.trivial_module(tgd.group, tgd.field)
        seen_trivial_early = False
        for n in range(1, gen.order + 1):
            power, _ = strip_projectives(modrep.tensor(power, mod))
            if n < gen.order and stable_iso(power, k):
                seen_trivial_early = True
        ok = ok and not seen_trivial_early and stable_iso(power, k)
    out["checked"] = True
    out["ok"] = bool(ok)
    return out


def verify_registry(group, field_spec) -> dict:
    """Self-verification of one registry entry; also cross-checks stable Aut."""
    g = build_group(group)
    field = field_spec if isinstance(field_spec, Fq) else fq_make(*field_spec)
    tgd = t_group(g, field)
    gen_reports = [verify_generator(tgd, i) for i in range(len(tgd.gens))]
    aut = stable_aut(g, field)
    h0 = tate_h0(g, field)
    aut_ok = (aut.structure.order() or 0) == h0.unit_group_order
    sh = modrep.stable_hom(
        modrep.trivial_module(g, field), modrep.trivial_module(g, field)
    )
    tate_ok = sh.quotient_dim == h0.dim
    ok = aut_ok and tate_ok and all(r["ok"] is not False for r in gen_reports)
    return {
        "group": g.name,
        "field": {"p": field.p, "deg": field.e},
        "structure": str(tgd.structure),
        "generators": gen_reports,
        "stable_aut_matches_tate_units": aut_ok,
        "stable_end_matches_tate": tate_ok,
        "ok": bool(ok),
    }
