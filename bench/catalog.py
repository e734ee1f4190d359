"""Workload catalogs, seeded item lists and the expected-outcome table.

Every catalog item is run in every pass, in catalog order, so the amount of
work in a pass does not depend on the seed.  The seed decides what differs
between equivalent inputs: the choice among isomorphic presentations of a
construction, the monomial change of basis applied to a module, and the
entries of the integer matrices.

The benchmark runs the workloads ``t_sweep`` and ``cli_cold``.
``endo_tensor`` stays runnable by name for work on the tensor path; it is
not in BENCHMARK.json because its passes (12-20 s) leave too few of them in a
run for its figures to be steady on a small shared machine.

Each expected outcome carries the source of its value:

* ``paper``: stated in the source paper (T(SL(2,Z)) over F2, F3, F4);
* ``theory``: a theorem, e.g. the syzygies of k over a p-group are
  endotrivial and k + Omega^n k is not, or the Smith normal form contract;
* ``regression``: the value the program computed when the benchmark was
  defined, not verified independently.  Expected refusals (``refused:`` and
  exit code 1) and ambiguous answers (exit code 2) are of this kind.
"""

from __future__ import annotations

import random

WORKLOADS = ("t_sweep", "endo_tensor", "cli_cold")


def C(n: int) -> dict:
    return {"cyclic": n}


Q8 = {"quaternion8": True}
V4 = {"klein4": True}


def _amalgam(left, right, edge, lefts, rights):
    """Presentations of left *_edge right: every embedding choice and both orders."""
    out = []
    for wl in lefts:
        for wr in rights:
            out.append({"type": "amalgam", "left": left, "right": right, "edge": edge,
                        "embed_left": {"gen_to": wl}, "embed_right": {"gen_to": wr}})
            out.append({"type": "amalgam", "left": right, "right": left, "edge": edge,
                        "embed_left": {"gen_to": wr}, "embed_right": {"gen_to": wl}})
    return out


def _hnn(vertex, edge, pairs):
    return [{"type": "hnn", "vertex": vertex, "edge": edge,
             "embed_initial": {"gen_to": a}, "embed_terminal": {"gen_to": b}} for a, b in pairs]


def _free(a, b):
    return [{"type": "free_product", "factors": [a, b]},
            {"type": "free_product", "factors": [b, a]}]


# Isomorphic presentations of each construction.  Any two embeddings of a
# cyclic edge group onto the same subgroup differ by an automorphism that
# extends to the vertex group, and swapping the sides of an amalgam or the
# factors of a free product (or inverting the stable letter of an HNN
# extension) gives an isomorphic group, so every variant has the same T.
CONSTRUCTIONS = {
    "SL2Z": _amalgam(C(6), C(4), C(2), ["g^3"], ["g^2"]),
    "C4*C2C4": _amalgam(C(4), C(4), C(2), ["g^2"], ["g^2"]),
    "C9*C3C6": _amalgam(C(9), C(6), C(3), ["g^3", "g^6"], ["g^2", "g^4"]),
    "C6*C3C6": _amalgam(C(6), C(6), C(3), ["g^2", "g^4"], ["g^2", "g^4"]),
    "C8*C2C4": _amalgam(C(8), C(4), C(2), ["g^4"], ["g^2"]),
    "Q8*C2C4": _amalgam(Q8, C(4), C(2), ["x^2", "y^2"], ["g^2"]),
    "C12*C4C4": _amalgam(C(12), C(4), C(4), ["g^3", "g^9"], ["g", "g^3"]),
    "HNN(C3)": _hnn(C(3), C(3), [("g", "g^2"), ("g^2", "g")]),
    "HNN(C4)": _hnn(C(4), C(2), [("g^2", "g^2")]),
    "C2*C3": _free(C(2), C(3)),
    "C4*C6": _free(C(4), C(6)),
}

# t_sweep: (construction, field q) -> (expected answer, source).  Answers are
# str(TResult.answer); "refused:<Exception>" is an expected refusal.  Mostly
# fields whose characteristic divides a vertex order: semisimple pairs finish
# in about a millisecond, and a few are kept so that the path is covered.
T_SWEEP = {
    ("SL2Z", 2): ("Z/2", "paper"),
    ("SL2Z", 3): ("Z/2 x Z/2", "paper"),
    ("SL2Z", 4): ("Z/6", "paper"),
    ("SL2Z", 5): ("0", "regression"),
    ("SL2Z", 8): ("Z/2", "regression"),
    ("SL2Z", 9): ("Z/2 x Z/2", "regression"),
    ("SL2Z", 16): ("Z/6", "regression"),
    ("SL2Z", 27): ("Z/2 x Z/2", "regression"),
    ("C4*C2C4", 2): ("Z/2 x Z/2", "regression"),
    ("C4*C2C4", 4): ("Z/2 x Z/2", "regression"),
    ("C4*C2C4", 8): ("Z/2 x Z/2", "regression"),
    ("C4*C2C4", 16): ("Z/2 x Z/2", "regression"),
    ("C9*C3C6", 2): ("0", "regression"),
    ("C9*C3C6", 3): ("Z/2 x Z/2", "regression"),
    ("C9*C3C6", 4): ("Z/3", "regression"),
    ("C9*C3C6", 9): ("Z/2 x Z/2", "regression"),
    ("C6*C3C6", 2): ("0", "regression"),
    ("C6*C3C6", 3): ("Z/2 x Z/2 x Z/2", "regression"),
    ("C6*C3C6", 4): ("Z/3 x Z/3", "regression"),
    ("C6*C3C6", 7): ("0", "regression"),
    ("C6*C3C6", 9): ("Z/2 x Z/2 x Z/2", "regression"),
    ("C6*C3C6", 27): ("Z/2 x Z/2 x Z/2", "regression"),
    ("C8*C2C4", 2): ("Z/2 x Z/2", "regression"),
    ("C8*C2C4", 4): ("Z/2 x Z/2", "regression"),
    ("C8*C2C4", 8): ("Z/2 x Z/2", "regression"),
    ("Q8*C2C4", 2): ("Z/2 x Z/4", "regression"),
    ("Q8*C2C4", 4): ("refused:UnsupportedGroup", "regression"),
    ("Q8*C2C4", 8): ("Z/2 x Z/4", "regression"),
    ("Q8*C2C4", 16): ("refused:UnsupportedGroup", "regression"),
    ("C12*C4C4", 2): ("Z/2", "regression"),
    ("C12*C4C4", 3): ("Z/2 x Z/2", "regression"),
    ("C12*C4C4", 4): ("Z/6", "regression"),
    ("C12*C4C4", 9): ("Z/2 x Z/4", "regression"),
    ("C12*C4C4", 16): ("Z/6", "regression"),
    ("HNN(C3)", 3): ("ambiguous extension of (Z/2) by (Z/2)", "regression"),
    ("HNN(C3)", 9): ("ambiguous extension of (Z/2) by (Z/8)", "regression"),
    ("HNN(C3)", 27): ("ambiguous extension of (Z/2) by (Z/26)", "regression"),
    ("HNN(C4)", 2): ("Z/2", "regression"),
    ("HNN(C4)", 4): ("Z/6", "regression"),
    ("HNN(C4)", 8): ("Z/14", "regression"),
    ("HNN(C4)", 16): ("Z/30", "regression"),
    ("C2*C3", 2): ("0", "regression"),
    ("C2*C3", 3): ("Z/2", "regression"),
    ("C2*C3", 9): ("Z/2", "regression"),
    ("C4*C6", 2): ("Z/2", "regression"),
    ("C4*C6", 3): ("Z/2 x Z/2", "regression"),
    ("C4*C6", 4): ("Z/6", "regression"),
    ("C4*C6", 27): ("Z/2 x Z/2", "regression"),
}

# endo_tensor: (label, group, field q, n, with k + Omega^n k).  Omega^n k is
# endotrivial and k + Omega^n k is not, both by theory.  The tensor square
# M (x) M* has dimension dim(M)^2: 225 or 256 for the three large items, 49 to
# 100 for the rest, which keep the item count high enough for a tail.
ENDO_CASES = [
    ("C16/F2 Omega^1", C(16), 2, 1, True),
    ("V4/F2 Omega^7", V4, 2, 7, False),
    ("Q8/F4 Omega^2", Q8, 4, 2, True),
    ("C9/F9 Omega^1", C(9), 9, 1, True),
    ("C9/F3 Omega^1", C(9), 3, 1, True),
    ("C8/F4 Omega^1", C(8), 4, 1, True),
    ("C8/F2 Omega^1", C(8), 2, 1, True),
    ("C4xC2/F2 Omega^1", {"product": [C(4), C(2)]}, 2, 1, True),
    ("V4/F2 Omega^3", V4, 2, 3, True),
    ("Q8/F2 Omega^1", Q8, 2, 1, True),
    ("C3xC3/F3 Omega^1", {"product": [C(3), C(3)]}, 3, 1, True),
    ("C2^3/F2 Omega^1", {"product": [{"product": [C(2), C(2)]}, C(2)]}, 2, 1, True),
    ("Q8/F4 Omega^1", Q8, 4, 1, True),
    ("C4xC2/F2 Omega^2", {"product": [C(4), C(2)]}, 2, 2, True),
    ("V4/F2 Omega^4", V4, 2, 4, True),
    ("V4/F4 Omega^3", V4, 4, 3, True),
    ("C3xC3/F3 Omega^2", {"product": [C(3), C(3)]}, 3, 2, True),
]

# Items that the smoke run keeps, one small slice of each workload.
SMOKE = {
    "t_sweep": {("SL2Z", 2), ("SL2Z", 3), ("SL2Z", 4), ("HNN(C3)", 3), ("Q8*C2C4", 4)},
    "endo_tensor": {"C2^3/F2 Omega^1", "C3xC3/F3 Omega^1"},
    "cli_cold": {"compute-t SL2Z/F4", "compute-t HNN(C3)/F3", "snf 4x4", "endotrivial C4/F2 sum"},
}


def field_of(q: int) -> tuple[int, int]:
    for p in (2, 3, 5, 7, 11, 13):
        e, r = 0, q
        while r % p == 0:
            r //= p
            e += 1
        if r == 1 and e:
            return p, e
    raise ValueError(f"{q} is not a small prime power")


def _field_json(q: int) -> dict:
    p, e = field_of(q)
    return {"p": p, "deg": e}


def t_sweep_items(rng: random.Random, smoke: bool) -> list[dict]:
    items = []
    for (cons, q), (expected, source) in T_SWEEP.items():
        if smoke and (cons, q) not in SMOKE["t_sweep"]:
            continue
        items.append({
            "name": f"compute_t {cons}/F{q}",
            "construction": rng.choice(CONSTRUCTIONS[cons]),
            "field": field_of(q),
            "expected": expected,
            "source": source,
        })
    return items


def endo_tensor_items(rng: random.Random, smoke: bool) -> list[dict]:
    items = []
    for label, group, q, n, with_sum in ENDO_CASES:
        if smoke and label not in SMOKE["endo_tensor"]:
            continue
        for plus_k in (False, True) if with_sum else (False,):
            items.append({
                "name": ("k + " if plus_k else "") + label,
                "group": group,
                "field": field_of(q),
                "n": n,
                "plus_k": plus_k,
                "basis_seed": rng.randrange(2**32),
                "expected": not plus_k,
                "source": "theory",
            })
    return items


def _random_matrix(rng: random.Random, n: int) -> list[list[int]]:
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


def _compute_t_doc(cons: str, q: int, rng: random.Random) -> dict:
    return {"schema": 1, "field": _field_json(q), "construction": rng.choice(CONSTRUCTIONS[cons])}


def cli_cold_items(rng: random.Random, smoke: bool) -> list[dict]:
    """Each item is one CLI process: argv (after ``picstab``), input files, expectation.

    ``expect`` maps report fields to values; ``exit`` is the expected exit
    code.  SNF items are checked against the SNF contract instead.
    """
    items = []

    def add(name, argv, exit_code, expect, source, files=None):
        items.append({"name": name, "argv": argv, "exit": exit_code, "expect": expect,
                      "source": source, "files": files or {}})

    def compute_t(cons, q, expected, source, verify=False, exit_code=0):
        tag = " --verify" if verify else ""
        fname = f"{cons}_F{q}{'_v' if verify else ''}.json"
        argv = ["compute-t", *(["--verify"] if verify else []), "{dir}/" + fname]
        add(f"compute-t{tag} {cons}/F{q}", argv, exit_code, expected, source,
            {fname: _compute_t_doc(cons, q, rng)})

    compute_t("SL2Z", 4, {"result.pretty": "Z/6"}, "paper")
    compute_t("SL2Z", 2, {"result.pretty": "Z/2"}, "paper")
    compute_t("SL2Z", 3, {"result.pretty": "Z/2 x Z/2"}, "paper")
    compute_t("SL2Z", 4, {"result.pretty": "Z/6"}, "paper", verify=True)
    compute_t("C4*C2C4", 2, {"result.pretty": "Z/2 x Z/2"}, "regression", verify=True)
    compute_t("C12*C4C4", 4, {"result.pretty": "Z/6"}, "regression")
    compute_t("C4*C6", 4, {"result.pretty": "Z/6"}, "regression")
    compute_t("HNN(C4)", 8, {"result.pretty": "Z/14"}, "regression")
    compute_t("HNN(C3)", 3, {"result.ambiguous": True, "result.sub.pretty": "Z/2",
                             "result.quot.pretty": "Z/2"}, "regression", exit_code=2)
    compute_t("HNN(C3)", 9, {"result.ambiguous": True, "result.sub.pretty": "Z/8",
                             "result.quot.pretty": "Z/2"}, "regression", exit_code=2)
    compute_t("Q8*C2C4", 4, {}, "regression", exit_code=1)
    add("verify", ["verify"], 0, {"ok": True}, "regression")
    add("endotrivial C2/F256 Omega", ["endotrivial", "C2", "F256", "syzygy(trivial)"], 0,
        {"endotrivial": True, "dimension": 1}, "theory")
    add("endotrivial C3/F4096 k", ["endotrivial", "C3", "F4096", "trivial"], 0,
        {"endotrivial": True, "dimension": 1}, "theory")
    add("endotrivial C4/F2 sum", ["endotrivial", "C4", "F2", "sum(trivial,syzygy(trivial))"],
        0, {"endotrivial": False, "dimension": 4}, "theory")
    add("endotrivial Q8/F2 Omega^2", ["endotrivial", "Q8", "F2", "syzygy(syzygy(trivial))"],
        0, {"endotrivial": True}, "theory")
    table = [[a ^ b for b in range(32)] for a in range(32)]
    add("components C2^5 table", ["components", "{dir}/c2_5.json", "--p", "2"], 0,
        {"count": 1}, "regression",
        {"c2_5.json": {"schema": 1, "construction": {"group": {"table": table}}}})
    add("stable-end Q8/F4", ["stable-end", "Q8", "F4"], 0,
        {"ring": "F4", "tate_h0_dim": 1}, "regression")
    add("stable-end C6/F3", ["stable-end", "C6", "F3"], 0,
        {"ring": "F3", "tate_h0_dim": 1}, "regression")
    add("restrict-class Q8>C4/F2", ["restrict-class", "--group", "Q8", "--subgroup", "C4",
                                    "--embed", rng.choice(["x", "y", "x^3"]), "--field", "F2",
                                    "--module", "syzygy(trivial)"], 0,
        {"class_exponents": [1]}, "regression")
    for n in (4, 5, 12, 16, 20):
        fname = f"snf{n}.json"
        add(f"snf {n}x{n}", ["snf", "{dir}/" + fname], 0, {"snf": n <= 5}, "theory",
            {fname: {"matrix": _random_matrix(rng, n)}})
    if smoke:
        items = [it for it in items if it["name"] in SMOKE["cli_cold"]]
    return items


BUILDERS = {"t_sweep": t_sweep_items, "endo_tensor": endo_tensor_items,
            "cli_cold": cli_cold_items}


def pass_items(workload: str, seed: int, pass_index: int, smoke: bool = False) -> list[dict]:
    """The items of one pass, in catalog order; the same arguments give the same list.

    The order is fixed, as in a nested sweep: shuffling it moves the cost of
    filling shared caches from item to item, which made the per-item
    figures depend on the seed far more than the inputs do.
    """
    return BUILDERS[workload](random.Random(seed * 1_000_003 + pass_index), smoke)


# Rows of the ROADMAP baseline table that fall inside the workloads, with the
# time stated there, for the per-item cross-check in the run record.
BASELINE_ROWS = {
    "endo_tensor": {"C16/F2 Omega^1": 2.0},
    "t_sweep": {"compute_t C9*C3C6/F9": 1.4},
    "cli_cold": {"compute-t SL2Z/F4": 0.38},
}
