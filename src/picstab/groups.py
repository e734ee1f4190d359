"""Finite groups as multiplication tables.

Element 0 is always the identity.  Canonical element orderings, fixed so
that serialized homomorphisms stay portable:

* ``cyclic(n)``: element i is g^i for the generator g.
* ``klein4``: 1, a, b, a*b.
* ``quaternion8``: x^a y^b at index a + 4b, with x^4 = 1, y^2 = x^2 and
  y x y^-1 = x^-1.
* ``product(A, B)``: the pair (a, b) sits at index a*|B| + b.

Groups are immutable; inverses and Sylow subgroups are computed on demand
and cached.  The library grows subgroups by cyclic extension; only the test
reference ``all_subgroups`` closes the whole subgroup lattice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product as iproduct

import numpy as np

from .exactlin import factorize, is_prime

MAX_GROUP_ORDER = 200


class InvalidTable(ValueError):
    pass


class NotHomomorphism(ValueError):
    pass


class NotInjective(ValueError):
    pass


@dataclass(frozen=True)
class FiniteGroup:
    name: str
    mult: tuple[tuple[int, ...], ...]
    generators: tuple[int, ...]
    element_names: tuple[str, ...]
    gen_names: tuple[str, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.mult)

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def inv(self, a: int) -> int:
        inv = self._cache.get("inv")
        if inv is None:
            inv = self._cache["inv"] = tuple(row.index(0) for row in self.mult)
        return inv[a]

    def element_order(self, a: int) -> int:
        n = 1
        x = a
        while x != 0:
            x = self.mult[x][a]
            n += 1
        return n

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mult[self.mult[g][x]][self.inv(g)]

    def power(self, a: int, n: int) -> int:
        if n < 0:
            return self.power(self.inv(a), -n)
        x = 0
        for _ in range(n):
            x = self.mult[x][a]
        return x

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order {self.order})"


def is_abelian(g: FiniteGroup) -> bool:
    return all(g.mult[a][b] == g.mult[b][a] for a in range(g.order) for b in range(a))


def p_parts(n: int, p: int) -> tuple[int, int]:
    """(p^a, m) with n = p^a m and p not dividing m."""
    pa = 1
    while n % p == 0:
        pa *= p
        n //= p
    return pa, n


def _validate_table(mult: tuple[tuple[int, ...], ...]) -> None:
    n = len(mult)
    t = np.array(mult, dtype=np.int64).reshape(n, n)
    if t.shape != (n, n) or np.any(t < 0) or np.any(t >= n):
        raise InvalidTable("entries out of range")
    if not (np.array_equal(t[0], np.arange(n)) and np.array_equal(t[:, 0], np.arange(n))):
        raise InvalidTable("element 0 is not an identity")
    for a in range(n):
        if 0 not in t[a]:
            raise InvalidTable(f"element {a} has no inverse")
    # associativity: T[T[a,b],c] == T[a,T[b,c]] for all triples, vectorised
    if not np.array_equal(t[t, :], t[:, t]):
        raise InvalidTable("multiplication is not associative")


def _closure(mult, elems) -> frozenset[int]:
    seen = set(elems) | {0}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for y in list(seen):
            for z in (mult[x][y], mult[y][x]):
                if z not in seen:
                    seen.add(z)
                    frontier.append(z)
    return frozenset(seen)


def _generating_set(mult) -> tuple[int, ...]:
    n = len(mult)
    gens: list[int] = []
    have = frozenset({0})
    # greedy: always add the element extending the closure the most
    while len(have) < n:
        best, best_cl = None, have
        for x in range(1, n):
            if x in have:
                continue
            cl = _closure(mult, set(have) | {x})
            if best is None or len(cl) > len(best_cl):
                best, best_cl = x, cl
        gens.append(best)
        have = best_cl
    return tuple(gens)


def _make(name, mult, generators, element_names, gen_names) -> FiniteGroup:
    mult = tuple(tuple(int(x) for x in row) for row in mult)
    if len(mult) > MAX_GROUP_ORDER:
        raise InvalidTable(f"group order {len(mult)} exceeds cap {MAX_GROUP_ORDER}")
    _validate_table(mult)
    g = FiniteGroup(name, mult, tuple(generators), tuple(element_names), tuple(gen_names))
    if _closure(mult, g.generators) != frozenset(range(len(mult))):
        raise InvalidTable("generators do not generate")
    return g


@lru_cache(maxsize=None)
def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidTable("cyclic group order must be >= 1")
    mult = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = tuple("1" if i == 0 else ("g" if i == 1 else f"g^{i}") for i in range(n))
    gens = (1,) if n > 1 else ()
    return _make(f"C{n}", mult, gens, names, ("g",) if n > 1 else ())


@lru_cache(maxsize=None)
def klein4() -> FiniteGroup:
    mult = [[i ^ j for j in range(4)] for i in range(4)]
    return _make("V4", mult, (1, 2), ("1", "a", "b", "a*b"), ("a", "b"))


@lru_cache(maxsize=None)
def quaternion8() -> FiniteGroup:
    def idx(a, b):
        return a % 4 + 4 * (b % 2)

    mult = [[0] * 8 for _ in range(8)]
    for a1, b1 in iproduct(range(4), range(2)):
        for a2, b2 in iproduct(range(4), range(2)):
            # (x^a1 y^b1)(x^a2 y^b2); moving x past y inverts it, y^2 = x^2
            a = a1 - a2 if b1 else a1 + a2
            b = b1 + b2
            if b == 2:
                a, b = a + 2, 0
            mult[idx(a1, b1)][idx(a2, b2)] = idx(a, b)
    names = []
    for b in range(2):
        for a in range(4):
            xs = {0: "", 1: "x", 2: "x^2", 3: "x^3"}[a]
            ys = "y" if b else ""
            names.append("*".join(s for s in (xs, ys) if s) or "1")
    return _make("Q8", mult, (1, 4), tuple(names), ("x", "y"))


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    na, nb = a.order, b.order
    mult = [
        [(a.mult[x1][x2]) * nb + b.mult[y1][y2] for x2 in range(na) for y2 in range(nb)]
        for x1 in range(na)
        for y1 in range(nb)
    ]
    names = tuple(
        f"({a.element_names[x]},{b.element_names[y]})" for x in range(na) for y in range(nb)
    )
    gens = tuple(x * nb for x in a.generators) + tuple(b.generators)
    gen_names = tuple(f"g{i}" for i in range(len(gens)))
    return _make(f"{a.name}x{b.name}", mult, gens, names, gen_names)


def from_table(mult, name: str = "G") -> FiniteGroup:
    gens = _generating_set(mult)
    names = tuple(f"e{i}" if i else "1" for i in range(len(mult)))
    gen_names = tuple(f"e{i}" for i in gens)
    return _make(name, mult, gens, names, gen_names)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # JSON true is not 1


def build_group(spec, path: str = "group") -> FiniteGroup:
    """Build a group from a JSON-style description.

    Accepted forms: {"cyclic": n}, {"quaternion8": true}, {"klein4": true},
    {"product": [spec, spec]}, {"table": [[...]]}.  A malformed size, factor
    list or table raises InvalidTable naming its path, with ``path`` naming
    ``spec`` itself.
    """
    if isinstance(spec, FiniteGroup):
        return spec
    if not isinstance(spec, dict) or len(spec) != 1:
        raise InvalidTable(f"bad group description: {spec!r}")
    key, val = next(iter(spec.items()))
    where = f"{path}.{key}"
    if key == "cyclic":
        if not (_is_int(val) and val >= 1):
            raise InvalidTable(f"{where} = {json.dumps(val)} must be a positive integer")
        return cyclic(val)
    if key == "quaternion8":
        return quaternion8()
    if key == "klein4":
        return klein4()
    if key == "product":
        if not (isinstance(val, list) and len(val) == 2):
            raise InvalidTable(f"{where} must be a list of two groups")
        left, right = (build_group(v, f"{where}[{i}]") for i, v in enumerate(val))
        return direct_product(left, right)
    if key == "table":
        n = len(val) if isinstance(val, list) else 0
        if not n or not all(isinstance(r, list) and len(r) == n for r in val) or not all(
            _is_int(x) and 0 <= x < n for r in val for x in r
        ):
            raise InvalidTable(f"{where} must be n >= 1 rows of n integers in 0..n-1")
        return from_table(val)
    raise InvalidTable(f"unknown group constructor {key!r}")


def parse_word(group: FiniteGroup, word: str) -> int:
    """Evaluate a word like "g^3", "x*y" or "1" in the group's generators."""
    word = word.strip()
    if word in ("1", "e", ""):
        return 0
    out = 0
    for tok in word.split("*"):
        tok = tok.strip()
        if "^" in tok:
            base, _, exp = tok.partition("^")
            k = int(exp)
        else:
            base, k = tok, 1
        base = base.strip()
        if base in ("1", "e"):
            continue
        try:
            gi = group.generators[group.gen_names.index(base)]
        except ValueError:
            raise NotHomomorphism(
                f"unknown generator {base!r} for {group.name}; has {group.gen_names}"
            ) from None
        out = group.mult[out][group.power(gi, k)]
    return out


# ---------------------------------------------------------------------------
# subgroups


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    elements: frozenset[int]

    @property
    def order(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> tuple[int, ...]:
        return tuple(sorted(self.elements))

    def is_normal(self) -> bool:
        g = self.parent
        return all(
            g.conjugate(x, h) in self.elements for x in range(g.order) for h in self.elements
        )

    def conjugate_by(self, x: int) -> "Subgroup":
        g = self.parent
        return Subgroup(g, frozenset(g.conjugate(x, h) for h in self.elements))

    def __repr__(self) -> str:
        return f"Subgroup({self.parent.name}, {sorted(self.elements)})"


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, found by closing the lattice under one-element extensions.

    No library code calls this: the library grows only the subgroups it needs
    by :func:`_solvable_subgroups`.  It stays public as the reference that
    tests compare against, and because the benchmark traces it by name.
    """
    seen = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        h = frontier.pop()
        for x in range(1, g.order):
            if x in h:
                continue
            k = _closure(g.mult, set(h) | {x})
            if k not in seen:
                seen.add(k)
                frontier.append(k)
    return [Subgroup(g, s) for s in sorted(seen, key=lambda s: (len(s), sorted(s)))]


def _solvable_subgroups(g: FiniteGroup, primes: frozenset[int]) -> list[Subgroup]:
    """Every solvable subgroup whose order has no prime factor outside ``primes``.

    Cyclic extension (Cannon, Cox and Holt, J. Symbolic Comput. 31, 2001): a
    solvable H > 1 has a normal subgroup K of prime index r, so
    H = K u xK u ... u x^(r-1)K for an x that normalises K with x^r in K.
    Growing from {1} by such steps, with r in ``primes``, reaches each of
    these subgroups and no other.  Sorted as :func:`all_subgroups` sorts.
    """
    seen = {frozenset({0})}
    frontier = [frozenset({0})]
    while frontier:
        k = frontier.pop()
        covered = set(k)  # an x inside a prime-index extension of k gives that extension
        for x in range(1, g.order):
            if x in covered:
                continue
            powers, y = [0], x
            while y not in k:
                powers.append(y)
                y = g.mult[y][x]
            if len(powers) not in primes or any(g.conjugate(x, h) not in k for h in k):
                continue
            ext = frozenset(g.mult[y][h] for y in powers for h in k)
            covered |= ext
            if ext not in seen:
                seen.add(ext)
                frontier.append(ext)
    return [Subgroup(g, s) for s in sorted(seen, key=lambda s: (len(s), sorted(s)))]


def conjugacy_classes_of_subgroups(subs: list[Subgroup]) -> list[list[Subgroup]]:
    """The conjugacy classes of the subgroups in ``subs``, which is closed under conjugation."""
    classes: list[list[Subgroup]] = []
    assigned: set[frozenset[int]] = set()
    for s in subs:
        if s.elements not in assigned:
            members = sorted({s.conjugate_by(x).elements for x in range(s.parent.order)}, key=sorted)
            assigned.update(members)
            classes.append([Subgroup(s.parent, m) for m in members])
    return classes


def p_subgroup_classes(g: FiniteGroup, p: int) -> list[list[Subgroup]]:
    """Conjugacy classes of the non-trivial p-subgroups."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    psubs = _solvable_subgroups(g, frozenset({p}))[1:]  # [0] is the trivial subgroup
    return conjugacy_classes_of_subgroups(psubs)


def _closed_by_order(g: FiniteGroup, keep) -> Subgroup | None:
    """The elements whose order satisfies ``keep``, if they form a subgroup."""
    els = [x for x in range(g.order) if keep(g.element_order(x))]
    s = frozenset(els)
    if all(g.mult[a][b] in s for a in els for b in els):
        return Subgroup(g, s)
    return None


def sylow_subgroup(g: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup (the trivial subgroup when p does not divide |g|).

    When the p-elements are closed under multiplication they form a p-subgroup
    containing every other, so they are the unique (and normal) Sylow
    subgroup; only otherwise are the p-subgroups grown by cyclic extension.
    """
    key = ("sylow", p)
    cached = g._cache.get(key)
    if cached is not None:
        return cached
    best = _closed_by_order(g, lambda n: set(factorize(n)) <= {p})
    if best is None:
        best = max(_solvable_subgroups(g, frozenset({p})), key=lambda s: s.order)
    g._cache[key] = best
    return best


def sylow_complement(g: FiniteGroup, p: int) -> Subgroup:
    """A complement H to a normal Sylow p-subgroup P, so that G = P x| H.

    Schur-Zassenhaus guarantees that a subgroup of order |G:P| exists.  When
    the p'-elements are closed under multiplication they are that subgroup;
    otherwise it is grown by cyclic extension, which finds it as H is solvable:
    p | |G| there, so |H| <= 100, and |H| = 60 would need p >= 7, |G| >= 420.
    """
    syl = sylow_subgroup(g, p)
    if not syl.is_normal():
        raise ValueError(f"the Sylow {p}-subgroup of {g.name} is not normal")
    index = g.order // syl.order
    h = _closed_by_order(g, lambda n: n % p != 0)
    if h is not None:
        return h
    return next(
        s for s in _solvable_subgroups(g, frozenset(factorize(index))) if s.order == index
    )


# ---------------------------------------------------------------------------
# monomorphisms


@dataclass(frozen=True)
class GroupMono:
    source: FiniteGroup
    target: FiniteGroup
    map: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.map[x]

    def compose(self, outer: "GroupMono") -> "GroupMono":
        """outer o self : source -> outer.target."""
        if outer.source is not self.target and outer.source != self.target:
            raise NotHomomorphism("composition mismatch")
        return GroupMono(self.source, outer.target, tuple(outer.map[i] for i in self.map))

    def image(self) -> Subgroup:
        return Subgroup(self.target, frozenset(self.map))

    def is_identity(self) -> bool:
        return self.source == self.target and self.map == tuple(range(self.source.order))


def _hom_from_gen_images(src: FiniteGroup, tgt: FiniteGroup, images: dict[int, int]):
    n = src.order
    out = [-1] * n
    out[0] = 0
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for gi in src.generators:
            y = src.mult[x][gi]
            img = tgt.mult[out[x]][images[gi]]
            if out[y] == -1:
                out[y] = img
                frontier.append(y)
            elif out[y] != img:
                raise NotHomomorphism("generator images are inconsistent")
    for a in range(n):
        for b in range(n):
            if out[src.mult[a][b]] != tgt.mult[out[a]][out[b]]:
                raise NotHomomorphism("map does not respect multiplication")
    return tuple(out)


def mono_from_generator_images(
    src: FiniteGroup, tgt: FiniteGroup, images
) -> GroupMono:
    """Injective homomorphism sending each source generator to the given target element.

    ``images`` is a list aligned with ``src.generators``; entries may be
    element indices or words in the target's generators ("g^2", "x*y").
    """
    if isinstance(images, dict):
        img_list = [images[g] for g in src.generators]
    else:
        img_list = list(images)
    if len(img_list) != len(src.generators):
        raise NotHomomorphism("need one image per generator")
    resolved = {}
    for gi, im in zip(src.generators, img_list):
        resolved[gi] = parse_word(tgt, im) if isinstance(im, str) else int(im)
    full = _hom_from_gen_images(src, tgt, resolved)
    if len(set(full)) != src.order:
        raise NotInjective("generator images induce a non-injective map")
    return GroupMono(src, tgt, full)


def identity_mono(g: FiniteGroup) -> GroupMono:
    return GroupMono(g, g, tuple(range(g.order)))


def subgroup_inclusion_group(s: Subgroup, name: str | None = None) -> tuple[FiniteGroup, GroupMono]:
    """The subgroup as a standalone group, plus its inclusion mono."""
    parent = s.parent
    els = list(s.sorted_elements())
    pos = {e: i for i, e in enumerate(els)}
    mult = [[pos[parent.mult[a][b]] for b in els] for a in els]
    sub = from_table(mult, name or f"{parent.name}_sub{len(els)}")
    return sub, GroupMono(sub, parent, tuple(els))
