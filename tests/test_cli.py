import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from picstab.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


SL2Z = {
    "schema": 1,
    "field": {"p": 2, "deg": 2},
    "construction": {
        "type": "amalgam",
        "left": {"cyclic": 6},
        "right": {"cyclic": 4},
        "edge": {"cyclic": 2},
        "embed_left": {"gen_to": "g^3"},
        "embed_right": {"gen_to": "g^2"},
    },
}

AMBIGUOUS = {
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


def test_compute_t_sl2z_f4(runner, tmp_path):
    path = write(tmp_path, "sl2z.json", SL2Z)
    result = runner.invoke(main, ["compute-t", path])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["result"]["invariant_factors"] == [6]
    assert report["schema"] == 1
    assert len(report["input_sha256"]) == 64


def test_compute_t_sl2z_f3(runner, tmp_path):
    spec = dict(SL2Z, field={"p": 3, "deg": 1})
    path = write(tmp_path, "sl2z3.json", spec)
    result = runner.invoke(main, ["compute-t", path])
    assert result.exit_code == 0
    assert json.loads(result.output)["result"]["invariant_factors"] == [2, 2]


def test_compute_t_malformed_input(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ не json")
    result = runner.invoke(main, ["compute-t", str(path)])
    assert result.exit_code == 1
    assert "JSON" in result.output or "json" in result.output


def test_compute_t_wrong_schema(runner, tmp_path):
    path = write(tmp_path, "sch.json", {"schema": 99})
    result = runner.invoke(main, ["compute-t", path])
    assert result.exit_code == 1


def test_compute_t_ambiguous_exit_code(runner, tmp_path):
    path = write(tmp_path, "amb.json", AMBIGUOUS)
    result = runner.invoke(main, ["compute-t", path])
    assert result.exit_code == 2
    report = json.loads(result.output)
    assert report["result"]["ambiguous"] is True
    assert report["result"]["sub"]["invariant_factors"] == [2]
    assert report["result"]["quot"]["invariant_factors"] == [2]


def test_reports_are_byte_identical(runner, tmp_path):
    path = write(tmp_path, "sl2z.json", SL2Z)
    out1 = runner.invoke(main, ["compute-t", path]).output
    out2 = runner.invoke(main, ["compute-t", path]).output
    assert out1 == out2
    assert json.loads(out1) == json.loads(out2)


def test_report_reparses_and_embeds_hash(runner, tmp_path):
    path = write(tmp_path, "sl2z.json", SL2Z)
    report = json.loads(runner.invoke(main, ["compute-t", path]).output)
    import hashlib

    assert report["input_sha256"] == hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_out_file_and_text_format(runner, tmp_path):
    path = write(tmp_path, "sl2z.json", SL2Z)
    out = tmp_path / "report.txt"
    result = runner.invoke(
        main, ["compute-t", path, "--format", "text", "--out", str(out)]
    )
    assert result.exit_code == 0
    text = out.read_text()
    assert "pretty: Z/6" in text


def test_multiple_inputs(runner, tmp_path):
    p1 = write(tmp_path, "a.json", SL2Z)
    p2 = write(tmp_path, "b.json", dict(SL2Z, field={"p": 2, "deg": 1}))
    result = runner.invoke(main, ["compute-t", p1, p2])
    assert result.exit_code == 0
    # two JSON objects concatenated; split on the boundary
    chunks = result.output.replace("}\n{", "}\x00{").split("\x00")
    assert len(chunks) == 2
    assert json.loads(chunks[0])["result"]["invariant_factors"] == [6]
    assert json.loads(chunks[1])["result"]["invariant_factors"] == [2]


def test_jobs_mixed_exit_code(runner, tmp_path):
    p1 = write(tmp_path, "a.json", SL2Z)
    p2 = write(tmp_path, "amb.json", AMBIGUOUS)
    result = runner.invoke(main, ["compute-t", p1, p2])
    assert result.exit_code == 2


def test_profile_input(runner, tmp_path):
    spec = {
        "schema": 1,
        "field": {"p": 2, "deg": 2},
        "construction": {"profile": "Z2_times", "of": {"cyclic": 2}},
    }
    path = write(tmp_path, "prof.json", spec)
    result = runner.invoke(main, ["compute-t", path])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["result"]["invariant_factors"] == [6, 6]
    assert report["stable_aut"]["structure"] is None


def test_hnn_profile_vertex(runner, tmp_path):
    spec = {
        "schema": 1,
        "field": {"p": 2, "deg": 2},
        "construction": {
            "type": "hnn",
            "vertex": {"free_product": [{"cyclic": 2}, {"cyclic": 2}]},
        },
    }
    path = write(tmp_path, "zfree.json", spec)
    report = json.loads(runner.invoke(main, ["compute-t", path]).output)
    assert report["result"]["invariant_factors"] == [3, 3]


def test_general_graph_input(runner, tmp_path):
    spec = {
        "schema": 1,
        "field": {"p": 2, "deg": 1},
        "construction": {
            "type": "graph",
            "vertices": [{"cyclic": 4}, {"cyclic": 4}],
            "edges": [
                {
                    "edge": {"cyclic": 2},
                    "from": 0,
                    "to": 1,
                    "embed_from": {"gen_to": "g^2"},
                    "embed_to": {"gen_to": "g^2"},
                }
            ],
            "tree_edges": [0],
        },
    }
    path = write(tmp_path, "graph.json", spec)
    report = json.loads(runner.invoke(main, ["compute-t", path]).output)
    assert report["result"]["invariant_factors"] == [2, 2]


def test_compute_t_verify_flag(runner, tmp_path):
    path = write(tmp_path, "sl2z.json", SL2Z)
    result = runner.invoke(main, ["compute-t", path, "--verify"])
    assert result.exit_code == 0


def test_endotrivial_command(runner):
    result = runner.invoke(main, ["endotrivial", "C4", "F2", "syzygy(trivial)"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["endotrivial"] is True and report["dimension"] == 3
    result = runner.invoke(main, ["endotrivial", "C2", "F2", "regular"])
    assert json.loads(result.output)["endotrivial"] is False


def test_endotrivial_bad_recipe(runner):
    assert runner.invoke(main, ["endotrivial", "C4", "F2", "bogus()"]).exit_code == 1


def test_stable_end_command(runner):
    result = runner.invoke(main, ["stable-end", "Q8", "F4"])
    report = json.loads(result.output)
    assert report["factor_count"] == 1 and report["ring"] == "F4"
    report = json.loads(runner.invoke(main, ["stable-end", "C3", "F2"]).output)
    assert report["factor_count"] == 0 and report["ring"] == "0"


def test_components_command(runner, tmp_path):
    path = write(
        tmp_path,
        "f22.json",
        {
            "schema": 1,
            "construction": {
                "type": "free_product",
                "factors": [{"cyclic": 2}, {"cyclic": 2}],
            },
        },
    )
    report = json.loads(runner.invoke(main, ["components", path, "--p", "2"]).output)
    assert report["count"] == 2
    path = write(tmp_path, "q8.json", {"schema": 1, "construction": {"group": "Q8"}})
    report = json.loads(runner.invoke(main, ["components", path, "--p", "2"]).output)
    assert report["count"] == 1
    assert sorted(c["orders"][0] for c in report["classes"]) == [2, 4, 4, 4, 8]


@pytest.mark.parametrize("construction", [{"group": "C4"}, SL2Z["construction"]],
                         ids=["group", "graph"])
def test_components_refuses_a_non_prime(runner, tmp_path, construction):
    path = write(tmp_path, "c4.json", {"schema": 1, "construction": construction})
    result = runner.invoke(main, ["components", path, "--p", "4"])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.endswith("4 is not prime\n")


def test_restrict_class_command(runner):
    result = runner.invoke(
        main,
        [
            "restrict-class",
            "--group", "Q8",
            "--subgroup", "C4",
            "--embed", "x",
            "--field", "F2",
            "--module", "syzygy(trivial)",
        ],
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["class_exponents"] == [1]
    assert report["t_subgroup"]["pretty"] == "Z/2"


def test_snf_command(runner, tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"matrix": [[2, 4], [6, 8]]}))
    report = json.loads(runner.invoke(main, ["snf", str(path)]).output)
    assert report["diagonal"] == [2, 4]
    assert report["checks"]["u_m_v_equals_d"] is True
    assert report["checks"]["det_u"] in (-1, 1)
    assert report["checks"]["divisibility_chain"] is True


def test_verify_command(runner):
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["ok"] is True
    assert len(report["entries"]) == 10


# ---------------------------------------------------------------------------
# malformed constructions are refused with the path of the offending value


def _graph(vertices, edges, tree_edges=()):
    return {"type": "graph", "vertices": vertices, "edges": edges, "tree_edges": list(tree_edges)}


def _c2_edge(frm, to):
    return {"edge": {"cyclic": 2}, "from": frm, "to": to,
            "embed_from": {"gen_to": "g"}, "embed_to": {"gen_to": "g"}}


FREE_C2_C2 = {"free_product": [{"cyclic": 2}, {"cyclic": 2}]}

BAD_CONSTRUCTIONS = {
    "edge_to_out_of_range": (
        _graph([{"cyclic": 2}], [_c2_edge(0, 5)]),
        "construction.edges[0].to = 5; graph has 1 vertex",
    ),
    "edge_from_negative": (
        _graph([{"cyclic": 2}, {"cyclic": 2}], [_c2_edge(-1, 1)], [0]),
        "construction.edges[0].from = -1; graph has 2 vertices",
    ),
    "edge_into_free_product_vertex": (
        _graph([{"cyclic": 2}, FREE_C2_C2], [_c2_edge(0, 1)], [0]),
        "construction.edges[0].to = 1 is a free-product vertex",
    ),
    "tree_edge_out_of_range": (
        _graph([{"cyclic": 2}, {"cyclic": 2}], [_c2_edge(0, 1)], [3]),
        "construction.tree_edges[0] = 3; graph has 1 edge",
    ),
    "missing_embedding": (
        {key: val for key, val in SL2Z["construction"].items() if key != "embed_right"},
        "construction.embed_right is missing",
    ),
    "missing_edge_embedding": (
        _graph([{"cyclic": 2}, {"cyclic": 2}],
               [{key: val for key, val in _c2_edge(0, 1).items() if key != "embed_to"}], [0]),
        "construction.edges[0].embed_to is missing",
    ),
    "factors_not_a_list": (
        {"type": "free_product", "factors": "C2"},
        "construction.factors must be a list",
    ),
    "embedding_not_a_word": (
        {**SL2Z["construction"], "embed_left": 5},
        'construction.embed_left = 5 is not "id" or generator images',
    ),
    "embedding_index_out_of_range": (
        {**SL2Z["construction"], "embed_left": [99]},
        'construction.embed_left = [99] is not "id" or generator images',
    ),
    "edge_from_not_a_number": (
        _graph([{"cyclic": 2}, {"cyclic": 2}], [_c2_edge("x", 1)], [0]),
        'construction.edges[0].from = "x" must be an integer',
    ),
    "edge_from_fractional": (
        _graph([{"cyclic": 2}, {"cyclic": 2}], [_c2_edge(0.7, 1)], [0]),
        "construction.edges[0].from = 0.7 must be an integer",
    ),
    "tree_edge_boolean": (
        _graph([{"cyclic": 2}, {"cyclic": 2}], [_c2_edge(0, 1)], [True]),
        "construction.tree_edges[0] = true must be an integer",
    ),
    "cyclic_fractional": (
        {**SL2Z["construction"], "left": {"cyclic": 6.9}},
        "construction.left.cyclic = 6.9 must be a positive integer",
    ),
    "cyclic_boolean": (
        _graph([{"cyclic": True}, {"cyclic": 2}], [_c2_edge(0, 1)], [0]),
        "construction.vertices[0].cyclic = true must be a positive integer",
    ),
    "cyclic_not_a_number": (
        {**SL2Z["construction"], "edge": {"cyclic": "x"}},
        'construction.edge.cyclic = "x" must be a positive integer',
    ),
    "cyclic_inside_product": (
        {**SL2Z["construction"], "right": {"product": [{"cyclic": 2}, {"cyclic": 0}]}},
        "construction.right.product[1].cyclic = 0 must be a positive integer",
    ),
    "product_of_one": (
        {**SL2Z["construction"], "right": {"product": [{"cyclic": 2}]}},
        "construction.right.product must be a list of two groups",
    ),
    "table_ragged": (
        {"type": "free_product", "factors": [{"cyclic": 2}, {"table": [[0, 1], [1]]}]},
        "construction.factors[1].table must be n >= 1 rows of n integers in 0..n-1",
    ),
    "table_empty": (
        {"group": {"table": []}},
        "construction.group.table must be n >= 1 rows of n integers in 0..n-1",
    ),
    "table_entry_out_of_range": (
        {"group": {"table": [[0, 1], [1, 5]]}},
        "construction.group.table must be n >= 1 rows of n integers in 0..n-1",
    ),
}


@pytest.mark.parametrize("command", ["compute-t", "components"])
@pytest.mark.parametrize("case", sorted(BAD_CONSTRUCTIONS))
def test_bad_construction_is_an_input_error(runner, tmp_path, command, case):
    construction, message = BAD_CONSTRUCTIONS[case]
    path = write(tmp_path, "bad.json", {"schema": 1, "field": "F2", "construction": construction})
    args = [command, path] + (["--p", "2"] if command == "components" else [])
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert f"InputError: {message}" in result.stderr
    assert "Traceback" not in result.stderr


def test_missing_field_is_an_input_error(runner, tmp_path):
    spec = {key: val for key, val in SL2Z.items() if key != "field"}
    result = runner.invoke(main, ["compute-t", write(tmp_path, "nofield.json", spec)])
    assert result.exit_code == 1
    assert result.stderr.endswith("InputError: field is missing\n")


@pytest.mark.parametrize("field", ["F", "Fx", {"p": "x"}, {"p": 2, "deg": True}])
def test_bad_field_is_an_input_error(runner, tmp_path, field):
    path = write(tmp_path, "badfield.json", {**SL2Z, "field": field})
    result = runner.invoke(main, ["compute-t", path])
    assert result.exit_code == 1
    assert result.stderr.endswith(
        f'InputError: field = {json.dumps(field)} is not "F<q>" or {{"p": <int>, "deg": <int>}}\n'
    )


@pytest.mark.parametrize("field, message", [
    ({"p": 2, "deg": 0}, "field.deg = 0 must be at least 1"),
    ({"p": 4}, "field.p = 4 is not prime"),
    ('{"p": 1, "deg": 2}', "field.p = 1 is not prime"),
], ids=["deg_zero", "p_not_prime", "p_one_as_text"])
def test_field_out_of_range_is_an_input_error(runner, tmp_path, field, message):
    path = write(tmp_path, "badfield.json", {**SL2Z, "field": field})
    result = runner.invoke(main, ["compute-t", path])
    assert result.exit_code == 1
    assert result.stderr.endswith(f"InputError: {message}\n")


@pytest.mark.parametrize("args, path", [
    (["stable-end", '{"cyclic": ', "F2"], "group"),
    (["restrict-class", "--group", "C4", "--subgroup", '{"cyclic": ', "--embed", "g^2",
      "--field", "F2", "--module", "trivial"], "subgroup"),
], ids=["group", "subgroup"])
def test_truncated_group_json_is_an_input_error(runner, args, path):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == (
        f"InputError: {path}: not valid JSON (Expecting value: line 1 column 11 (char 10))\n"
    )


def test_verify_reports_a_typed_error(runner, monkeypatch):
    def broken(group, field):
        raise RuntimeError("registry unavailable")

    monkeypatch.setattr("picstab.picard.verify_registry", broken)
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 1
    assert result.stderr == "RuntimeError: registry unavailable\n"
