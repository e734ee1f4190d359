"""Module recipes: a tiny grammar for building kG-modules.

    trivial | regular | dual(r) | tensor(r,r) | syzygy(r) | cosyzygy(r)
            | sum(r,r) | character(i)

``character(i)`` is the i-th power of the canonical generator of
Hom(G, k^x) for an abelian group whose p'-part is cyclic: the generator
sends a fixed generating element of the p'-part to the canonical primitive
root of unity of largest order available in k.
"""

from __future__ import annotations

import math

from .exactlin import Fq, FqMatrix
from .groups import FiniteGroup, is_abelian, p_parts
from . import modrep
from .modrep import GModule


class RecipeError(ValueError):
    pass


def parse_recipe(text: str):
    """Parse the recipe grammar into a nested-tuple AST."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_node():
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
            pos += 1
        name = text[start:pos]
        skip_ws()
        if not name:
            raise RecipeError(f"expected a recipe name at position {start} in {text!r}")
        if name in ("trivial", "regular"):
            return (name,)
        if name == "character":
            args = parse_args(1)
            try:
                return ("character", int(args[0]))
            except (TypeError, ValueError):
                raise RecipeError("character() takes an integer index") from None
        if name in ("dual", "syzygy", "cosyzygy"):
            return (name, *parse_args(1))
        if name in ("tensor", "sum"):
            return (name, *parse_args(2))
        raise RecipeError(f"unknown recipe {name!r}")

    def parse_args(n):
        nonlocal pos
        skip_ws()
        if pos >= len(text) or text[pos] != "(":
            raise RecipeError(f"expected '(' at position {pos} in {text!r}")
        pos += 1
        args = []
        for i in range(n):
            if i:
                skip_ws()
                if pos >= len(text) or text[pos] != ",":
                    raise RecipeError(f"expected ',' at position {pos} in {text!r}")
                pos += 1
            skip_ws()
            if text[pos : pos + 1].lstrip("-").isdigit() or (
                pos < len(text) and text[pos] in "-0123456789"
            ):
                start = pos
                if text[pos] == "-":
                    pos += 1
                while pos < len(text) and text[pos].isdigit():
                    pos += 1
                args.append(text[start:pos])
            else:
                args.append(parse_node())
        skip_ws()
        if pos >= len(text) or text[pos] != ")":
            raise RecipeError(f"expected ')' at position {pos} in {text!r}")
        pos += 1
        return args

    node = parse_node()
    skip_ws()
    if pos != len(text):
        raise RecipeError(f"trailing input {text[pos:]!r}")
    return node


def recipe_to_str(ast) -> str:
    head = ast[0]
    if head in ("trivial", "regular"):
        return head
    if head == "character":
        return f"character({ast[1]})"
    return f"{head}({', '.join(recipe_to_str(a) if isinstance(a, tuple) else str(a) for a in ast[1:])})"


# ---------------------------------------------------------------------------
# canonical characters


def _require_abelian_cyclic_pprime(group: FiniteGroup, m: int) -> int:
    """Return an element generating the p'-part, of order m, or raise."""
    if not is_abelian(group):
        raise RecipeError("characters need an abelian group")
    for x in range(group.order):
        if group.element_order(x) == m:
            return x
    raise RecipeError("characters need a cyclic p'-part")


def character_module(group: FiniteGroup, field: Fq, power: int) -> GModule:
    """The power-th tensor power of the canonical character, as a rank-1 module."""
    p, q = field.p, field.q
    pa, m = p_parts(group.order, p)
    gen_el = _require_abelian_cyclic_pprime(group, m)
    c = math.gcd(m, q - 1)
    if c == 1:
        return modrep.trivial_module(group, field)
    zeta = field.pow(field.primitive_element(), (q - 1) // c)
    u = pow(pa, -1, m)
    scalars = []
    for gi in group.generators:
        proj = group.power(gi, pa * u)  # image in the p'-part
        t = 0
        x = 0
        while x != proj:
            x = group.mult[x][gen_el]
            t += 1
            if t > m:
                raise RecipeError("discrete log failed")
        scalars.append(field.pow(zeta, t * power))
    mats = [FqMatrix.from_rows(field, [[s]]) for s in scalars]
    return GModule._make(group, field, mats, 1, f"chi^{power % c}")


def build_recipe(group: FiniteGroup, field: Fq, ast) -> GModule:
    if isinstance(ast, str):
        ast = parse_recipe(ast)
    head = ast[0]
    if head == "trivial":
        return modrep.trivial_module(group, field)
    if head == "regular":
        return modrep.regular_module(group, field)
    if head == "character":
        return character_module(group, field, ast[1])
    if head == "dual":
        return modrep.dual(build_recipe(group, field, ast[1]))
    if head == "syzygy":
        return modrep.syzygy(build_recipe(group, field, ast[1]))
    if head == "cosyzygy":
        return modrep.cosyzygy(build_recipe(group, field, ast[1]))
    if head == "tensor":
        return modrep.tensor(
            build_recipe(group, field, ast[1]), build_recipe(group, field, ast[2])
        )
    if head == "sum":
        left = build_recipe(group, field, ast[1])
        right = build_recipe(group, field, ast[2])
        return modrep.direct_sum(group, field, [left, right])
    raise RecipeError(f"unknown recipe node {head!r}")
