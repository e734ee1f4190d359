"""Command-line front end: JSON problem descriptions in, reports out.

Exit codes: 0 success, 1 invalid input or computation error, 2 for a
mathematically honest "ambiguous extension" answer.  Machine reports are
deterministic: identical input files give byte-identical JSON.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import click

from .abgrp import FgAbelian
from .exactlin import Fq, ZMatrix, det, factorize, fq_make, is_prime, smith_normal_form
from .groups import FiniteGroup, InvalidTable, _is_int, build_group, mono_from_generator_images
from . import components as components_mod
from . import modrep, picard, treecalc
from .recipes import build_recipe, parse_recipe, recipe_to_str

SCHEMA_VERSION = 1


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# input parsing


def parse_field(spec) -> Fq:
    """A field from "F<q>", or from {"p": p, "deg": e} given as an object or as JSON text."""
    if isinstance(spec, str):
        text = spec.strip()
        if text[:1].upper() == "F" and text[1:].isdigit():
            q = int(text[1:])
            fac = factorize(q)
            if len(fac) != 1:
                raise InputError(f"{q} is not a prime power")
            ((p, e),) = fac.items()
            return fq_make(p, e)
        try:
            spec = json.loads(text)
        except json.JSONDecodeError:
            pass  # refused below, quoting the text
    if not (isinstance(spec, dict) and _is_int(spec.get("p")) and _is_int(spec.get("deg", 1))):
        raise InputError(f'field = {json.dumps(spec)} is not "F<q>" or {{"p": <int>, "deg": <int>}}')
    p, deg = spec["p"], spec.get("deg", 1)
    if not is_prime(p):
        raise InputError(f"field.p = {p} is not prime")
    if deg < 1:
        raise InputError(f"field.deg = {deg} must be at least 1")
    return fq_make(p, deg)


def parse_group(spec, path: str = "group") -> FiniteGroup:
    """A group from a shorthand ("C6", "Q8", "V4"), JSON text or a description at ``path``."""
    if isinstance(spec, str):
        text = spec.strip()
        if text.startswith("{"):
            try:
                spec = json.loads(text)
            except json.JSONDecodeError as ex:
                raise InputError(f"{path}: not valid JSON ({ex})") from None
        elif text.upper() == "Q8":
            spec = {"quaternion8": True}
        elif text.upper() in ("V4", "K4", "KLEIN4"):
            spec = {"klein4": True}
        elif text.upper().startswith("C") and text[1:].isdigit():
            spec = {"cyclic": int(text[1:])}
        else:
            raise InputError(f"unknown group shorthand {spec!r}")
    try:
        return build_group(spec, path)
    except InvalidTable as ex:
        raise InputError(str(ex)) from None


def _parse_embed(obj, key: str, path: str, edge: FiniteGroup, target: FiniteGroup):
    """The monomorphism edge -> target given by obj[key]: "id", or generator images."""
    embed = _get(obj, key, path)
    if embed in ("id", {"id": True}):
        if edge != target:
            raise InputError("identity embedding needs edge group equal to vertex group")
        from .groups import identity_mono

        return identity_mono(target)
    if isinstance(embed, dict) and "gen_to" in embed:
        words = embed["gen_to"]
    else:
        words = embed
    if isinstance(words, str):
        words = [words]
    if not isinstance(words, list) or not all(
        isinstance(w, str) or (_is_int(w) and 0 <= w < target.order) for w in words
    ):
        raise InputError(f'{path}.{key} = {json.dumps(embed)} is not "id" or generator images')
    return mono_from_generator_images(edge, target, words)


def _get(obj, key: str, path: str, kind: type | None = None):
    """obj[key], or an InputError naming the key's path when it is missing or not of ``kind``."""
    where = f"{path}.{key}" if path else key
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{where} is missing")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise InputError(f"{where} must be {'a list' if kind is list else 'an object'}")
    return value


def _parse_vertex(spec, path: str):
    if isinstance(spec, dict) and "free_product" in spec:
        parts = _get(spec, "free_product", path, list)
        return treecalc.ProfileVertex(
            tuple(parse_group(s, f"{path}.free_product[{i}]") for i, s in enumerate(parts))
        )
    return treecalc.FiniteVertex(parse_group(spec, path))


def _check_index(i, items: list | tuple, path: str, noun: str, nouns: str) -> int:
    if not _is_int(i):
        raise InputError(f"{path} = {json.dumps(i)} must be an integer")
    n = len(items)
    if not 0 <= i < n:
        raise InputError(f"{path} = {i}; graph has {n} {noun if n == 1 else nouns}")
    return i


def _parse_graph(cons: dict) -> treecalc.GraphOfGroups:
    vertices = tuple(
        _parse_vertex(v, f"construction.vertices[{i}]")
        for i, v in enumerate(_get(cons, "vertices", "construction", list))
    )
    edge_specs = _get(cons, "edges", "construction", list)
    edges = []
    for n, e in enumerate(edge_specs):
        path = f"construction.edges[{n}]"
        if not isinstance(e, dict):
            raise InputError(f"{path} must be an object")
        iv, tv = (
            _check_index(_get(e, end, path), vertices, f"{path}.{end}", "vertex", "vertices")
            for end in ("from", "to")
        )
        if e.get("edge") == "id" or e.get("identity"):
            edges.append(treecalc.Edge(None, iv, tv, None, None))
            continue
        edge = parse_group(_get(e, "edge", path), f"{path}.edge")
        monos = []
        for end, v in (("from", iv), ("to", tv)):
            if not isinstance(vertices[v], treecalc.FiniteVertex):
                raise InputError(
                    f"{path}.{end} = {v} is a free-product vertex; "
                    "only identity self-edges may touch it"
                )
            monos.append(_parse_embed(e, f"embed_{end}", path, edge, vertices[v].group))
        edges.append(treecalc.Edge(edge, iv, tv, *monos))
    tree_specs = _get(cons, "tree_edges", "construction", list) if "tree_edges" in cons else []
    tree = tuple(
        _check_index(i, edges, f"construction.tree_edges[{n}]", "edge", "edges")
        for n, i in enumerate(tree_specs)
    )
    return treecalc.GraphOfGroups(vertices, tuple(edges), tree)


def parse_construction(cons: dict):
    """Returns ('gog', GraphOfGroups), ('profile', name, group), or ('group', g)."""
    if not isinstance(cons, dict):
        raise InputError("construction must be an object")
    if "profile" in cons:
        of = parse_group(_get(cons, "of", "construction"), "construction.of")
        return ("profile", cons["profile"], of)
    if "group" in cons:
        return ("group", parse_group(cons["group"], "construction.group"))
    kind = cons.get("type")
    if kind == "amalgam":
        left, right, edge = (
            parse_group(_get(cons, key, "construction"), f"construction.{key}")
            for key in ("left", "right", "edge")
        )
        gog = treecalc.amalgam(
            left,
            right,
            edge,
            _parse_embed(cons, "embed_left", "construction", edge, left),
            _parse_embed(cons, "embed_right", "construction", edge, right),
        )
        return ("gog", gog)
    if kind == "hnn":
        vertex = _parse_vertex(_get(cons, "vertex", "construction"), "construction.vertex")
        if isinstance(vertex, treecalc.ProfileVertex):
            if cons.get("embed_initial", "id") != "id" or cons.get("embed_terminal", "id") != "id":
                raise InputError("profile vertices support only identity embeddings")
            return ("gog", treecalc.z_times(vertex))
        edge = parse_group(_get(cons, "edge", "construction"), "construction.edge")
        gog = treecalc.hnn(
            vertex.group,
            edge,
            _parse_embed(cons, "embed_initial", "construction", edge, vertex.group),
            _parse_embed(cons, "embed_terminal", "construction", edge, vertex.group),
        )
        return ("gog", gog)
    if kind == "free_product":
        factors = _get(cons, "factors", "construction", list)
        groups = [parse_group(s, f"construction.factors[{i}]") for i, s in enumerate(factors)]
        return ("gog", treecalc.free_product(groups))
    if kind == "graph":
        return ("gog", _parse_graph(cons))
    raise InputError(f"unknown construction {cons!r}")


def _load_input(path: str) -> tuple[dict, str]:
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as ex:
        raise InputError(f"{path}: not valid JSON ({ex})") from None
    if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
        raise InputError(f'{path}: expected an object with "schema": {SCHEMA_VERSION}')
    return data, digest


# ---------------------------------------------------------------------------
# reports


def _structure_json(s: FgAbelian) -> dict:
    out = s.to_json()
    out["pretty"] = str(s)
    return out


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_text(report: dict) -> str:
    lines = [f"picstab {report.get('command', '?')} report"]

    def walk(obj, indent=1):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key in sorted(obj):
                val = obj[key]
                if isinstance(val, (dict, list)):
                    lines.append(f"{pad}{key}:")
                    walk(val, indent + 1)
                else:
                    lines.append(f"{pad}{key}: {val}")
        elif isinstance(obj, list):
            for val in obj:
                if isinstance(val, (dict, list)):
                    walk(val, indent)
                else:
                    lines.append(f"{pad}- {val}")

    walk({k: v for k, v in report.items() if k != "command"})
    return "\n".join(lines) + "\n"


def _emit(report: dict, fmt: str, out: str | None) -> None:
    text = render_json(report) if fmt == "json" else render_text(report)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _verify_groups(groups, field) -> None:
    for g in groups:
        result = picard.verify_registry(g, field)
        if not result["ok"]:
            raise InputError(f"registry self-verification failed for {result['group']}")


def _header(command: str, digest: str | None) -> dict:
    """The fields every report starts with; commands without an input have no digest."""
    head = {"schema": SCHEMA_VERSION, "command": command}
    if digest is not None:
        head["input_sha256"] = digest
    return head


def _args_digest(*args: str) -> str:
    return hashlib.sha256("\x1f".join(args).encode()).hexdigest()


def _report_options(fn):
    fn = click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json")(fn)
    return click.option("--out", default=None, help="Write the report to this file.")(fn)


@click.group()
def main() -> None:
    """Picard groups of stable module categories, by exact arithmetic."""


def report_command(name: str):
    """Register a command whose function returns (input digest, report body, exit code).

    The command gets --out and --format, its report starts with
    :func:`_header`, and any exception is printed as "Type: message" on
    stderr with exit code 1.
    """

    def register(fn):
        @functools.wraps(fn)
        def command(out, fmt, **kwargs):
            try:
                digest, body, code = fn(**kwargs)
                _emit({**_header(name, digest), **body}, fmt, out)
            except Exception as ex:  # noqa: BLE001 - converted to exit code 1 per contract
                click.echo(f"{type(ex).__name__}: {ex}", err=True)
                sys.exit(1)
            sys.exit(code)

        return main.command(name)(_report_options(command))

    return register


# ---------------------------------------------------------------------------
# compute-t


def _evaluate_compute_t(path: str, verify: bool) -> tuple[dict, int]:
    data, digest = _load_input(path)
    field = parse_field(_get(data, "field", ""))
    construction = _get(data, "construction", "")
    kind, *rest = parse_construction(construction)
    report = {
        **_header("compute-t", digest),
        "field": {"p": field.p, "deg": field.e},
        "construction": construction,
    }
    if kind == "profile":
        name, group = rest
        if verify:
            _verify_groups([group], field)
        t, aut = picard.infinite_profile(name, group, field)
        report["result"] = {"ambiguous": False, **_structure_json(t.structure)}
        report["profile"] = t.to_json()
        report["stable_aut"] = aut.to_json()
        return report, 0
    if kind == "group":
        raise InputError("compute-t expects a graph-of-groups construction or a profile")
    (gog,) = rest
    if verify:
        finite_groups = [v.group for v in gog.vertices if isinstance(v, treecalc.FiniteVertex)]
        finite_groups += [e.group for e in gog.edges if e.group is not None]
        _verify_groups(finite_groups, field)
    result = treecalc.compute_t(gog, field)
    if result.is_ambiguous:
        report["result"] = {
            "ambiguous": True,
            "sub": _structure_json(result.answer.sub),
            "quot": _structure_json(result.answer.quot),
        }
    else:
        report["result"] = {"ambiguous": False, **_structure_json(result.answer)}
    report["sequence"] = {
        "scalar_automorphism_cokernel": _structure_json(result.sub),
        "vertex_restriction_kernel": _structure_json(result.quot),
        "rule": result.rule,
    }
    report["provenance"] = result.provenance
    return report, 2 if result.is_ambiguous else 0


@main.command("compute-t")
@click.argument("inputs", nargs=-1, required=True, type=click.Path(exists=True))
@_report_options
@click.option("--verify", is_flag=True, help="Run registry self-verification first.")
def cmd_compute_t(inputs, out, fmt, verify) -> None:
    """Compute T(G) for the graph of groups described in each INPUT file."""
    if out and len(inputs) > 1:
        raise click.UsageError("--out supports a single input file")
    exit_code = 0
    for path in inputs:
        try:
            report, code = _evaluate_compute_t(path, verify)
        except Exception as ex:  # noqa: BLE001 - converted to exit code 1 per contract
            click.echo(f"{path}: {type(ex).__name__}: {ex}", err=True)
            exit_code = 1
            continue
        _emit(report, fmt, out)
        if code == 2 and exit_code == 0:
            exit_code = 2
    sys.exit(exit_code)


# ---------------------------------------------------------------------------
# the other report commands


@report_command("endotrivial")
@click.argument("group")
@click.argument("field")
@click.argument("recipe")
@click.option("--verify", is_flag=True, help="Run registry self-verification first.")
def cmd_endotrivial(group, field, recipe, verify):
    """Decide whether the module given by RECIPE is endotrivial."""
    g = parse_group(group)
    k = parse_field(field)
    ast = parse_recipe(recipe)
    if verify:
        _verify_groups([g], k)
    mod = build_recipe(g, k, ast)
    report = {
        "group": g.name,
        "field": {"p": k.p, "deg": k.e},
        "recipe": recipe_to_str(ast),
        "dimension": mod.dim,
        "endotrivial": bool(modrep.is_endotrivial(mod)),
    }
    return _args_digest(group, field, recipe), report, 0


@report_command("stable-end")
@click.argument("group")
@click.argument("field")
def cmd_stable_end(group, field):
    """Idempotent decomposition of the stable endomorphisms of k."""
    g = parse_group(group)
    k = parse_field(field)
    factors = components_mod.stable_end_decomposition(g, k)
    report = {
        "group": g.name,
        "field": {"p": k.p, "deg": k.e},
        "factor_count": len(factors),
        "factors": [f"F{f.q}" for f in factors],
        "ring": " x ".join(f"F{f.q}" for f in factors) or "0",
        "tate_h0_dim": modrep.tate_h0(g, k).dim,
    }
    return _args_digest(group, field), report, 0


@report_command("components")
@click.argument("input_file", type=click.Path(exists=True))
@click.option("--p", "prime", required=True, type=int)
def cmd_components(input_file, prime):
    """Components of non-trivial p-subgroups for a group or graph of groups."""
    data, digest = _load_input(input_file)
    kind, *rest = parse_construction(_get(data, "construction", ""))
    if kind == "group":
        (g,) = rest
        pc = components_mod.p_components_finite(g, prime)
        detail = {
            "count": pc.count,
            "classes": [
                {"orders": [s.order for s in cls], "size": len(cls)} for cls in pc.classes
            ],
            "components": [list(c) for c in pc.components],
        }
    elif kind == "gog":
        (gog,) = rest
        detail = {"count": components_mod.p_components_graph(gog, prime)}
    else:
        raise InputError("components needs a finite group or a graph of finite groups")
    return digest, {"p": prime, **detail}, 0


@report_command("restrict-class")
@click.option("--group", required=True, help="The big group (JSON or shorthand).")
@click.option("--subgroup", required=True, help="The subgroup as a standalone group.")
@click.option("--embed", required=True, help="Generator images, e.g. \"g^2\" or \"x,y\".")
@click.option("--field", required=True)
@click.option("--module", "recipe", required=True, help="Module recipe over the big group.")
def cmd_restrict_class(group, subgroup, embed, field, recipe):
    """Restrict a module and identify its class in T(subgroup)."""
    g = parse_group(group)
    h = parse_group(subgroup, "subgroup")
    k = parse_field(field)
    words = [w.strip() for w in embed.split(",")]
    mono = mono_from_generator_images(h, g, words)
    ast = parse_recipe(recipe)
    mod = build_recipe(g, k, ast)
    tgd = picard.t_group(h, k)
    exps = tgd.identify(modrep.restrict(mod, mono))
    report = {
        "group": g.name,
        "subgroup": h.name,
        "field": {"p": k.p, "deg": k.e},
        "recipe": recipe_to_str(ast),
        "t_subgroup": _structure_json(tgd.structure),
        "class_exponents": list(exps),
        "generators": [t.label for t in tgd.gens],
        "is_trivial_class": not any(exps),
    }
    return _args_digest(group, subgroup, embed, field, recipe), report, 0


@report_command("snf")
@click.argument("matrix_file", type=click.Path(exists=True))
def cmd_snf(matrix_file):
    """Smith normal form of an integer matrix given as {"matrix": [[...]]}."""
    raw = Path(matrix_file).read_bytes()
    m = ZMatrix(_get(json.loads(raw), "matrix", "", list))
    u, d, v = smith_normal_form(m)
    diag = [int(x) for x in d.diagonal_entries()]
    report = {
        "U": u.to_lists(),
        "D": d.to_lists(),
        "V": v.to_lists(),
        "diagonal": diag,
        "checks": {
            "u_m_v_equals_d": bool((u @ m @ v) == d),
            "det_u": det(u),
            "det_v": det(v),
            "divisibility_chain": all(
                diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1) if diag[i]
            ),
        },
    }
    return hashlib.sha256(raw).hexdigest(), report, 0


@report_command("verify")
def cmd_verify():
    """Self-verify every built-in registry entry."""
    reports = [picard.verify_registry(g, f) for g, f in picard.BUILTIN_PAIRS]
    ok = all(r["ok"] for r in reports)
    return None, {"ok": ok, "entries": reports}, 0 if ok else 1


if __name__ == "__main__":
    main()
