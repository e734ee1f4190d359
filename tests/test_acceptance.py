"""Acceptance suite: every criterion checks exact values and its time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import random
import time

from click.testing import CliRunner

from picstab.abgrp import AbHom, Ambiguous, FgAbelian, ab_image, ab_kernel
from picstab.cli import main as cli_main
from picstab.components import p_components_graph, stable_end_decomposition
from picstab.exactlin import ZMatrix, det, fq_make, minor_gcd, smith_normal_form
from picstab.groups import cyclic, klein4, quaternion8
from picstab.modrep import (
    direct_sum,
    dual,
    ev_map,
    is_endotrivial,
    stable_hom,
    stable_iso,
    strip_projectives,
    syzygy,
    tate_h0,
    tensor,
    trivial_module,
)
from picstab.picard import BUILTIN_PAIRS, infinite_profile
from picstab.treecalc import (
    FiniteVertex,
    ProfileVertex,
    amalgam,
    compute_t,
    diagonal_check_q8,
    free_product,
    hnn,
    z_times,
)

F2 = fq_make(2, 1)
F3 = fq_make(3, 1)
F4 = fq_make(2, 2)


def _report(n: int, budget: float, started: float, detail: str):
    elapsed = time.perf_counter() - started
    print(f"PASS criterion {n} ({elapsed:.2f}s, budget {budget:.0f}s): {detail}")
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget"


def sl2z():
    return amalgam(cyclic(6), cyclic(4), cyclic(2), ["g^3"], ["g^2"])


def test_criterion_1_sl2z_picard_group():
    started = time.perf_counter()
    for field, expected in [(F4, (6,)), (F2, (2,)), (F3, (2, 2))]:
        t0 = time.perf_counter()
        result = compute_t(sl2z(), field)
        assert result.answer == FgAbelian(expected)
        assert time.perf_counter() - t0 < 1.0
    _report(1, 3.0, started, "T(SL(2,Z)) = Z/6 | Z/2 | Z/2 x Z/2 over F4 | F2 | F3")


def test_criterion_2_c4_amalgam_and_quaternion_diagonal():
    t0 = time.perf_counter()
    gog = amalgam(cyclic(4), cyclic(4), cyclic(2), ["g^2"], ["g^2"])
    result = compute_t(gog, F2)
    assert result.answer == FgAbelian((2, 2))
    check = diagonal_check_q8(F2)
    assert check["diagonal_confirmed"] and check["class_is_nonzero"]
    assert check["class_under_x_restriction"] == check["class_under_y_restriction"] == [1]
    _report(2, 5.0, t0, "T(C4 *_C2 C4) = (Z/2)^2 over F2; both Q8 restrictions hit the nonzero class")


def test_criterion_3_free_product_decomposition():
    t0 = time.perf_counter()
    c2c2 = free_product([cyclic(2), cyclic(2)])
    assert p_components_graph(c2c2, 2) == 2
    factors = stable_end_decomposition(c2c2, F2)
    assert [f.q for f in factors] == [2, 2]
    assert p_components_graph(free_product([cyclic(2), cyclic(3)]), 2) == 1
    _report(3, 1.0, t0, "C2*C2 has 2 components at p=2 with stable End k x k; C2*C3 has 1")


def test_criterion_4_z_extension_profiles():
    t0 = time.perf_counter()
    assert compute_t(z_times(FiniteVertex(cyclic(2))), F4).answer == FgAbelian((3,))
    t_z2, _ = infinite_profile("Z2_times", {"cyclic": 2}, F4)
    assert t_z2.structure == FgAbelian.from_factors([3, 3, 2, 2])
    chained = compute_t(z_times(ProfileVertex((cyclic(2), cyclic(2)))), F4)
    assert chained.answer == FgAbelian((3, 3))
    _report(4, 1.0, t0, "T(Z x C2)=Z/3, T(Z^2 x C2)=(Z/3)^2 x (Z/2)^2, T(Z x (C2*C2))=(Z/3)^2 over F4")


def test_criterion_5_endotriviality_suite():
    t0 = time.perf_counter()
    cases = [(cyclic(4), F2), (cyclic(3), F3), (quaternion8(), F2)]
    for group, field in cases:
        k = trivial_module(group, field)
        mod = k
        for n in range(3):
            assert is_endotrivial(mod), (group.name, n)
            assert stable_iso(tensor(mod, dual(mod)), k), (group.name, n)
            ev = ev_map(mod)
            sh = stable_hom(ev.source, ev.target)
            assert sh.quotient_dim == 1
            assert not sh.is_stably_zero(ev)
            mod = syzygy(mod)
    _report(5, 30.0, t0, "Omega^n k endotrivial with nonzero ev and dual inverse, n=0..2, over F2C4, F3C3, F2Q8")


def test_criterion_6_tate_stable_end_consistency():
    t0 = time.perf_counter()
    from picstab.groups import build_group
    from picstab.exactlin import FqMatrix
    from picstab.modrep import GMap

    assert len(BUILTIN_PAIRS) == 10
    for spec, (p, e) in BUILTIN_PAIRS:
        g = build_group(spec)
        field = fq_make(p, e)
        k = trivial_module(g, field)
        sh = stable_hom(k, k)
        expected = 1 if g.order % field.p == 0 else 0
        assert sh.quotient_dim == tate_h0(g, field).dim == expected, (g.name, field.q)
    # composition agrees with tensor on stable endomorphism representatives
    k = trivial_module(cyclic(2), F4)
    sh = stable_hom(k, k)
    import numpy as np

    for a in range(F4.q):
        for b in range(F4.q):
            fa = GMap(k, k, FqMatrix.from_rows(F4, [[a]]))
            fb = GMap(k, k, FqMatrix.from_rows(F4, [[b]]))
            assert np.array_equal(
                sh.class_vector(fb.compose(fa)),
                sh.class_vector(GMap(k, k, fa.matrix.kron(fb.matrix))),
            )
    _report(6, 10.0, t0, "dim stable End(k) = dim Tate H^0 on all 10 built-in pairs; composition = tensor")


def test_criterion_7_property_suites(isomorphic_by_summands):
    t0 = time.perf_counter()
    rng = random.Random(7)
    # SNF contract with the gcd-of-minors oracle, sizes <= 4
    for _ in range(12):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = ZMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        u, d, v = smith_normal_form(m)
        assert (u @ m @ v) == d
        assert det(u) in (-1, 1) and det(v) in (-1, 1)
        diag = list(d.diagonal_entries())
        for i in range(len(diag) - 1):
            assert diag[i + 1] % diag[i] == 0 if diag[i] else diag[i + 1] == 0
        prod = 1
        for size in range(1, min(rows, cols) + 1):
            prod *= diag[size - 1]
            assert prod == minor_gcd(m, size)
    # syzygy periodicity for cyclic p-groups
    for g, f in [(cyclic(4), F2), (cyclic(8), F2), (cyclic(3), F3), (cyclic(9), F3)]:
        k = trivial_module(g, f)
        assert stable_iso(syzygy(syzygy(k)), k)
    k2 = trivial_module(cyclic(2), F2)
    assert stable_iso(syzygy(k2), k2)
    # strip_projectives roundtrip
    for g, f in [(cyclic(4), F2), (cyclic(6), F4), (quaternion8(), F2)]:
        k = trivial_module(g, f)
        from picstab.modrep import regular_module

        m = direct_sum(g, f, [syzygy(k), regular_module(g, f)])
        core, proj = strip_projectives(m)
        assert isomorphic_by_summands(direct_sum(g, f, [core, proj]), m)
    # abelian-group order bookkeeping
    for _ in range(12):
        src = FgAbelian.from_factors([rng.choice([2, 3, 4, 6, 9]) for _ in range(rng.randint(1, 3))])
        tgt = FgAbelian.from_factors([rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(1, 3))])
        rows = []
        for j in range(tgt.rank):
            row = []
            for i in range(src.rank):
                import math

                step = tgt.factors[j] // math.gcd(src.factors[i], tgt.factors[j])
                row.append(step * rng.randint(0, 5))
            rows.append(row)
        h = AbHom(src, tgt, ZMatrix(rows, cols=src.rank))
        kgrp, _ = ab_kernel(h)
        assert kgrp.order() * ab_image(h).order() == src.order()
    # rule vs computation on 5 random amalgams of built-in groups
    pool = [cyclic(2), cyclic(3), cyclic(4), cyclic(6), quaternion8(), klein4()]
    made = 0
    while made < 5:
        edge = rng.choice([cyclic(1), cyclic(2), cyclic(3)])
        left, right = rng.choice(pool), rng.choice(pool)
        embeds = []
        ok = True
        for tgt in (left, right):
            cands = [
                x
                for x in range(tgt.order)
                if (tgt.element_order(x) == edge.order if edge.order > 1 else x == 0)
            ]
            if not cands:
                ok = False
                break
            embeds.append([tgt.element_names[rng.choice(cands)]])
        if not ok:
            continue
        field = rng.choice([F2, F3, F4])
        try:
            result = compute_t(amalgam(left, right, edge, embeds[0], embeds[1]), field)
        except Exception:
            continue
        assert result.sub.is_trivial()
        made += 1
    _report(7, 60.0, t0, "SNF contract, syzygy periodicity, strip roundtrip, order bookkeeping, amalgam rule x5")


def test_criterion_8_ambiguity_is_reported_honestly(tmp_path):
    t0 = time.perf_counter()
    gog = hnn(cyclic(3), cyclic(3), ["g"], ["g^2"])
    result = compute_t(gog, F3)
    assert result.is_ambiguous
    assert result.answer == Ambiguous(FgAbelian((2,)), FgAbelian((2,)))
    # and through the CLI: exit code 2 with an explicit ambiguous report
    spec = {
        "schema": 1,
        "field": {"p": 3, "deg": 1},
        "construction": {
            "type": "hnn",
            "vertex": {"cyclic": 3},
            "edge": {"cyclic": 3},
            "embed_initial": {"gen_to": "g"},
            "embed_terminal": {"gen_to": "g^2"},
        },
    }
    path = tmp_path / "ambiguous.json"
    path.write_text(json.dumps(spec))
    run = CliRunner().invoke(cli_main, ["compute-t", str(path)])
    assert run.exit_code == 2
    report = json.loads(run.output)
    assert report["result"]["ambiguous"] is True
    assert report["result"]["sub"]["invariant_factors"] == [2]
    assert report["result"]["quot"]["invariant_factors"] == [2]
    _report(8, 5.0, t0, "Z/2-by-Z/2 graph with no splitting rule exits 2 with an Ambiguous report")
