import json
import subprocess
import sys

import pytest

RUN = [sys.executable, "-m", "singlab"]


def run_cli(*args, check=True):
    proc = subprocess.run(
        RUN + list(args), capture_output=True, text=True
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture
def nodal_file(tmp_path):
    doc = {
        "ring": {"variables": ["x", "y"], "weights": [1, 1], "field": "rat"},
        "sigma": "y^2 - x^2 - x^3",
        "phi": [["y", "x + x^2"], ["-x", "-y"]],
        "psi": [["y", "x + x^2"], ["-x", "-y"]],
    }
    path = tmp_path / "nodal.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_mf_verify_nodal(nodal_file):
    proc = run_cli("mf", "verify", nodal_file)
    assert json.loads(proc.stdout) == {"ok": True}


def test_milnor_example():
    proc = run_cli("milnor", "--ring", "x,y,z", "--sigma", "x^2+y^2+z^3")
    payload = json.loads(proc.stdout)
    assert payload["milnorNumber"] == 2


def test_quiver_blocks_example():
    proc = run_cli("quiver", "blocks", "--type", "A3", "--lambda", "0,1,0")
    payload = json.loads(proc.stdout)
    assert [b["type"] for b in payload["blocks"]] == ["A1", "A1"]
    assert all(b["polynomial"] == "x^2 + y^2 + z^2" for b in payload["blocks"])


def test_byte_identical_outputs(nodal_file):
    a = run_cli("mf", "verify", nodal_file).stdout
    b = run_cli("mf", "verify", nodal_file).stdout
    assert a == b
    c = run_cli("milnor", "--ring", "x,y,z", "--sigma", "x^2+y^2+z^3").stdout
    d = run_cli("milnor", "--ring", "x,y,z", "--sigma", "x^2+y^2+z^3").stdout
    assert c == d


def test_exit_code_input_error():
    proc = run_cli("milnor", "--ring", "x", "--sigma", "x^^", check=False)
    assert proc.returncode == 2
    assert "ParseError" in proc.stderr


def assert_input_error(proc):
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "InputError"


def test_negative_weight_bound_is_input_error():
    assert_input_error(run_cli(
        "endcoh", "--ring", "x", "--sigma", "x^2", "--ideal", "x",
        "--weight-bound", "-5", check=False,
    ))


def test_negative_trunc_is_input_error(tmp_path):
    doc = {
        "vertices": ["1", "2"],
        "arrows": [{"name": "a", "from": "1", "to": "2"}],
    }
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(doc))
    assert_input_error(run_cli(
        "quiver", "preproj", str(path), "--trunc", "-1", check=False
    ))


def test_negative_depth_is_input_error(tmp_path):
    doc = {
        "algebra": {
            "basis": ["1", "x"],
            "unit": "1",
            "products": {"1,1": {"1": "1"}, "1,x": {"x": "1"}, "x,1": {"x": "1"}},
        },
        "idempotent": {"1": "1"},
    }
    path = tmp_path / "drinfeld.json"
    path.write_text(json.dumps(doc))
    assert_input_error(run_cli(
        "quiver", "drinfeld", str(path), "--depth", "-3", check=False
    ))


def test_negative_window_size_is_input_error(nodal_file):
    assert_input_error(run_cli(
        "mf", "unfold", nodal_file, "--window-size", "-2", check=False
    ))


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def assert_missing_key(proc, key):
    assert_input_error(proc)
    assert repr(key) in json.loads(proc.stderr)["message"]


def test_mf_verify_missing_key_is_input_error(tmp_path):
    path = write_json(tmp_path, "empty.json", {})
    assert_missing_key(run_cli("mf", "verify", path, check=False), "ring")


def test_hh_missing_key_is_input_error(tmp_path):
    path = write_json(tmp_path, "empty.json", {})
    assert_missing_key(run_cli("hh", path, check=False), "basis")


def test_koszul_dual_missing_key_is_input_error(tmp_path):
    path = write_json(tmp_path, "empty.json", {})
    assert_missing_key(run_cli("koszul-dual", path, check=False), "basis")


def test_cobar_missing_key_is_input_error(tmp_path):
    doc = {
        "basis": ["1", "x"],
        "degrees": [0, 0],
        "unit": "1",
        "products": {"1,1": {"1": "1"}, "1,x": {"x": "1"}, "x,1": {"x": "1"}},
    }
    path = write_json(tmp_path, "alg.json", doc)
    assert_missing_key(
        run_cli("cobar", path, "--trunc", "0", check=False), "coaug"
    )


DUAL_NUMBERS = {
    "basis": ["1", "x"],
    "unit": "1",
    "products": {"1,1": {"1": "1"}, "1,x": {"x": "1"}, "x,1": {"x": "1"}},
}


def test_quiver_missing_key_is_input_error(tmp_path):
    empty = write_json(tmp_path, "empty.json", {})
    assert_missing_key(
        run_cli("quiver", "drinfeld", empty, check=False), "algebra"
    )
    for action in ("paths", "preproj", "derived"):
        assert_missing_key(
            run_cli("quiver", action, empty, check=False), "vertices"
        )
    path = write_json(tmp_path, "q.json", {"vertices": ["1"]})
    assert_missing_key(run_cli("quiver", "paths", path, check=False), "arrows")
    path = write_json(tmp_path, "d.json", {"algebra": DUAL_NUMBERS})
    assert_missing_key(
        run_cli("quiver", "drinfeld", path, check=False), "idempotent"
    )
    path = write_json(tmp_path, "d0.json", {"algebra": {}, "idempotent": {}})
    assert_missing_key(run_cli("quiver", "drinfeld", path, check=False), "basis")
    proc = run_cli("quiver", "drinfeld", "--schema")
    assert set(json.loads(proc.stdout)["input"]) == {"algebra", "idempotent"}


def test_nested_missing_key_is_input_error(tmp_path):
    doc = {"ring": {}, "sigma": "x^2", "phi": [["x"]], "psi": [["x"]]}
    path = write_json(tmp_path, "ring.json", doc)
    assert_missing_key(run_cli("mf", "verify", path, check=False), "variables")
    doc["ring"] = ["x"]
    path = write_json(tmp_path, "ring_list.json", doc)
    assert_input_error(run_cli("mf", "verify", path, check=False))
    # weights and field inside the ring stay optional
    doc["ring"] = {"variables": ["x"]}
    path = write_json(tmp_path, "ring_min.json", doc)
    assert json.loads(run_cli("mf", "verify", path).stdout) == {"ok": True}


def input_error_message(capsys, *argv):
    from singlab import cli

    assert cli.main(list(argv)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputError"
    return err["message"]


@pytest.mark.parametrize("command, action", [
    ("quiver", action) for action in ("paths", "preproj", "derived", "drinfeld")
] + [
    ("mf", action) for action in (
        "verify", "shift", "tensor", "unfold", "coker",
        "knoerrer-g", "knoerrer-h", "rho", "hom",
    )
])
def test_missing_file_is_input_error(capsys, command, action):
    message = input_error_message(capsys, command, action)
    assert f"{command} {action} needs an input file" in message


def test_arrow_keys_are_checked(tmp_path, capsys):
    for arrows, expected in (
        ([{"name": "a"}], "'from'"),
        ([{"name": "a", "from": "1"}], "'to'"),
        ([{"from": "1", "to": "2"}], "'name'"),
        ([{"name": "a", "from": "1", "to": "3"}], "unknown vertex"),
        ({"a": {"from": "1", "to": "2"}}, "list"),
        (["a"], "object"),
    ):
        path = write_json(
            tmp_path, "q.json", {"vertices": ["1", "2"], "arrows": arrows}
        )
        assert expected in input_error_message(capsys, "quiver", "paths", path)


def bad_names():
    """(document change, name the error must give) for an algebra."""
    return (
        ({"unit": "v"}, "'v'"),
        ({"products": {"11": {"1": "1"}}}, "'11'"),
        ({"products": {"1,x,x": {"x": "1"}}}, "'1,x,x'"),
        ({"products": {"1,z": {"z": "1"}}}, "'z'"),
        ({"products": {"1,1": {"q": "1"}}}, "'q'"),
    )


@pytest.mark.parametrize("command", ["hh", "koszul-dual", "bar"])
def test_unknown_algebra_names_are_input_errors(tmp_path, capsys, command):
    for change, expected in bad_names():
        path = write_json(tmp_path, "alg.json", {**DUAL_NUMBERS, **change})
        assert expected in input_error_message(capsys, command, path)


def test_unknown_drinfeld_names_are_input_errors(tmp_path, capsys):
    cases = [
        ({"algebra": {**DUAL_NUMBERS, **change}, "idempotent": {"1": "1"}},
         expected)
        for change, expected in bad_names()
    ]
    cases.append(({"algebra": DUAL_NUMBERS, "idempotent": {"w": "1"}}, "'w'"))
    for doc, expected in cases:
        path = write_json(tmp_path, "drinfeld.json", doc)
        assert expected in input_error_message(capsys, "quiver", "drinfeld", path)


def test_unknown_differential_and_delta_names_are_input_errors(
    tmp_path, capsys
):
    for key, doc in (
        ("'d'", {**DUAL_NUMBERS, "differential": {"d": {"x": "1"}}}),
        ("'c'", {**DUAL_NUMBERS, "curvature": {"c": "1"}}),
    ):
        path = write_json(tmp_path, "hh.json", doc)
        assert key in input_error_message(capsys, "hh", path)
    coalg = {"basis": ["1", "x"], "coaug": "1", "delta": {"x": {"x": "1"}}}
    path = write_json(tmp_path, "cobar.json", coalg)
    assert "'x'" in input_error_message(capsys, "cobar", path)


@pytest.mark.parametrize("command, window", [
    ("hh", "3"),
    ("hh", "a:b"),
    ("hh", "3:1"),
    ("hh", "0:1:2"),
    ("koszul-dual", "2:0"),
])
def test_malformed_window_is_input_error(tmp_path, command, window):
    path = write_json(tmp_path, "dual.json", DUAL_NUMBERS)
    assert_input_error(
        run_cli(command, path, f"--window={window}", check=False)
    )


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
    from singlab import cli

    def no_rebuild():
        raise AssertionError("main rebuilt the argument parser")

    monkeypatch.setattr(cli, "build_parser", no_rebuild)
    path = write_json(tmp_path, "dual.json", DUAL_NUMBERS)
    for argv in (
        ["milnor", "--ring", "x,y", "--sigma", "x^3+y^2", "--out", "text"],
        ["hh", path, "--window", "0:2", "--trunc", "5", "--out", "text"],
        ["milnor", "--ring", "x,y", "--sigma", "x^3+y^2"],
        ["hh", path, "--window", "0:2", "--trunc", "5"],
        ["bar", path, "--trunc", "3", "--out", "text"],
        ["quiver", "blocks", "--type", "A3", "--lambda", "0,1,0"],
        ["bar", path, "--trunc", "3"],
    ):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == run_cli(*argv).stdout


def test_depth_zero_is_not_the_default(tmp_path):
    doc = {
        "algebra": {
            "basis": ["1", "x"],
            "unit": "1",
            "products": {"1,1": {"1": "1"}, "1,x": {"x": "1"}, "x,1": {"x": "1"}},
        },
        "idempotent": {"1": "1"},
    }
    path = write_json(tmp_path, "drinfeld.json", doc)
    proc = run_cli("quiver", "drinfeld", path, "--depth", "0", check=False)
    assert proc.returncode == 4
    assert json.loads(proc.stderr)["error"] == "WindowExceedsBound"


def test_window_size_zero_is_not_the_default(nodal_file):
    proc = run_cli("mf", "unfold", nodal_file, "--window-size", "0")
    assert list(json.loads(proc.stdout)["components"]) == ["0"]


def test_exit_code_refused():
    proc = run_cli(
        "milnor", "--ring", "x", "--sigma", "x^2 + 1", check=False
    )
    assert proc.returncode == 3
    proc = run_cli(
        "quiver", "blocks", "--type", "A3", "--lambda=-1,0,0", check=False
    )
    assert proc.returncode == 3


def test_exit_code_bound_exceeded(tmp_path):
    doc = {
        "basis": ["1", "x"],
        "degrees": [0, 0],
        "unit": "1",
        "products": {"1,1": {"1": "1"}, "1,x": {"x": "1"}, "x,1": {"x": "1"}},
    }
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    proc = run_cli(
        "hh", str(path), "--window", "0:3", "--trunc", "3", check=False
    )
    assert proc.returncode == 4


def test_schema_flags():
    for cmd in (
        ["poly", "gb"],
        ["milnor"],
        ["tjurina"],
        ["mf", "verify"],
        ["stab"],
        ["endcoh"],
        ["hh", "x"],
        ["quiver", "blocks"],
        ["koszul-dual", "x"],
        ["bar", "x"],
        ["cobar", "x"],
    ):
        proc = run_cli(*cmd, "--schema")
        json.loads(proc.stdout)


def test_stab_and_endcoh():
    proc = run_cli("stab", "--ring", "x", "--sigma", "x^2", "--ideal", "x")
    payload = json.loads(proc.stdout)
    assert payload["phi"] == [["x"]] and payload["psi"] == [["x"]]
    assert payload["verified"] is True

    proc = run_cli(
        "endcoh", "--ring", "x", "--sigma", "x^2", "--ideal", "x",
        "--weight-bound", "2", "--theta-weights", "0", "--t-weights", "0",
    )
    payload = json.loads(proc.stdout)
    assert payload["dims"] == {"0,0": 1, "1,0": 1}


def test_hh_command(tmp_path):
    doc = {
        "grading": "Z",
        "basis": ["1", "x"],
        "degrees": [0, 0],
        "unit": "1",
        "products": {"1,1": {"1": "1"}, "1,x": {"x": "1"}, "x,1": {"x": "1"}},
    }
    path = tmp_path / "dual.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("hh", str(path), "--window", "0:2", "--trunc", "5")
    payload = json.loads(proc.stdout)
    assert payload["dims"] == {"0": 2, "1": 1, "2": 1}
    # progress stays on stderr, stdout is pure JSON
    assert proc.stdout.lstrip().startswith("{")


def test_quiver_paths_and_drinfeld(tmp_path):
    qdoc = {
        "vertices": ["1", "2"],
        "arrows": [{"name": "a", "from": "1", "to": "2"}],
    }
    qpath = tmp_path / "a2.json"
    qpath.write_text(json.dumps(qdoc))
    proc = run_cli("quiver", "paths", str(qpath), "--max-len", "2")
    assert json.loads(proc.stdout)["paths"] == ["e_1", "e_2", "a"]

    proc = run_cli("quiver", "preproj", str(qpath), "--trunc", "4")
    payload = json.loads(proc.stdout)
    assert payload["dims"] == [2, 4, 4, 4, 4]

    ddoc = {
        "algebra": {
            "basis": ["1", "x"],
            "unit": "1",
            "products": {
                "1,1": {"1": "1"},
                "1,x": {"x": "1"},
                "x,1": {"x": "1"},
            },
        },
        "idempotent": {"1": "1"},
    }
    dpath = tmp_path / "drinfeld.json"
    dpath.write_text(json.dumps(ddoc))
    proc = run_cli(
        "quiver", "drinfeld", str(dpath), "--depth", "6", "--window=-3:0"
    )
    payload = json.loads(proc.stdout)
    assert payload["cohomology"] == {"-1": 0, "-2": 0, "-3": 0, "0": 0}


def test_koszul_dual_and_bar_and_cobar(tmp_path):
    doc = {
        "basis": ["1", "e"],
        "degrees": [0, 0],
        "unit": "1",
        "products": {"1,1": {"1": "1"}, "1,e": {"e": "1"}, "e,1": {"e": "1"}},
    }
    path = tmp_path / "sz.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("koszul-dual", str(path), "--trunc", "6", "--window", "0:4")
    assert json.loads(proc.stdout)["dims"] == {
        "0": 1, "1": 1, "2": 1, "3": 1, "4": 1
    }
    proc = run_cli("bar", str(path), "--trunc", "3")
    assert json.loads(proc.stdout)["pieces"]["2"]["dim"] == 1

    cdoc = {
        "basis": ["u", "c"],
        "degrees": [0, -1],
        "coaug": "u",
        "delta": {},
    }
    cpath = tmp_path / "co.json"
    cpath.write_text(json.dumps(cdoc))
    proc = run_cli("cobar", str(cpath), "--trunc", "3")
    assert json.loads(proc.stdout)["words_by_degree"] == {"0": 3, "-0": 1} or \
        json.loads(proc.stdout)["words_by_degree"]["0"] >= 1


def test_text_output_mode():
    proc = run_cli(
        "milnor", "--ring", "x,y,z", "--sigma", "x^2+y^2+z^3", "--out", "text"
    )
    assert "milnorNumber = 2" in proc.stdout


def test_every_command_smoke(tmp_path, nodal_file):
    qdoc = {
        "vertices": ["1", "2"],
        "arrows": [{"name": "a", "from": "1", "to": "2"}],
    }
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps(qdoc))
    alg = {
        "basis": ["1", "e"],
        "degrees": [0, 0],
        "unit": "1",
        "products": {"1,1": {"1": "1"}, "1,e": {"e": "1"}, "e,1": {"e": "1"}},
    }
    apath = tmp_path / "alg.json"
    apath.write_text(json.dumps(alg))
    co = {
        "basis": ["u", "c"],
        "degrees": [0, -1],
        "coaug": "u",
        "delta": {},
    }
    cpath = tmp_path / "co.json"
    cpath.write_text(json.dumps(co))
    sweeps = [
        ["poly", "gb", "--ring", "x,y", "--gens", "x^2-y;y^2-x"],
        ["milnor", "--ring", "x", "--sigma", "x^2"],
        ["tjurina", "--ring", "x", "--sigma", "x^2"],
        ["mf", "verify", nodal_file],
        ["mf", "shift", nodal_file],
        ["mf", "tensor", nodal_file, nodal_file.replace("nodal", "other")],
        ["mf", "unfold", nodal_file, "--window-size", "2"],
        ["mf", "coker", nodal_file, "--trunc", "2"],
        ["mf", "knoerrer-g", nodal_file, "--var", "z"],
        ["mf", "knoerrer-h", nodal_file, "--vars", "u,v"],
        ["stab", "--ring", "x", "--sigma", "x^2", "--ideal", "x"],
        ["endcoh", "--ring", "x", "--sigma", "x^2", "--ideal", "x",
         "--weight-bound", "1"],
        ["hh", str(apath), "--window", "0:1", "--trunc", "4"],
        ["quiver", "paths", str(qpath)],
        ["quiver", "preproj", str(qpath), "--trunc", "3"],
        ["quiver", "derived", str(qpath), "--trunc", "3"],
        ["quiver", "blocks", "--type", "D4", "--lambda", "0,0,0,0"],
        ["koszul-dual", str(apath), "--trunc", "4", "--window", "0:2"],
        ["bar", str(apath), "--trunc", "3"],
        ["cobar", str(cpath), "--trunc", "3"],
    ]
    # second MF file for the tensor command, with disjoint variables
    other = {
        "ring": {"variables": ["z"], "weights": [1], "field": "rat"},
        "sigma": "z^2",
        "phi": [["z"]],
        "psi": [["z"]],
    }
    (tmp_path.parent / "other.json")
    import pathlib

    other_path = pathlib.Path(nodal_file.replace("nodal", "other"))
    other_path.write_text(json.dumps(other))
    for argv in sweeps:
        proc = run_cli(*argv)
        json.loads(proc.stdout)


def test_mf_rho_and_hom_cli(tmp_path):
    onevar = {
        "ring": {"variables": ["x"], "weights": [1], "field": "rat"},
        "sigma": "x^2",
        "phi": [["x"]],
        "psi": [["x"]],
        "weights_even": [0],
        "weights_odd": [0],
    }
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(onevar))
    proc = run_cli("mf", "hom", str(mpath), str(mpath), "--weight-bound", "2")
    payload = json.loads(proc.stdout)
    assert payload["dims"] == {"0,0": 1, "1,-1": 1}

    g = json.loads(run_cli("mf", "knoerrer-g", str(mpath), "--var", "y").stdout)
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(g))
    r = json.loads(run_cli("mf", "rho", str(gpath), "--var", "y").stdout)
    assert r["sigma"] == "x^2"


def test_gaussian_field_cli():
    proc = run_cli(
        "poly", "gb", "--ring", "x,y", "--field", "gauss",
        "--gens", "x^2 + i*y; y^2 - i*x",
    )
    payload = json.loads(proc.stdout)
    assert payload["basis"]
    proc = run_cli("milnor", "--ring", "x", "--field", "gauss",
                   "--sigma", "x^4")
    assert json.loads(proc.stdout)["milnorNumber"] == 3
