import ast
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conway_genera
from conway_genera import cli, genera
from conway_genera.series import JacobiSeries, QSeries

BUNDLED = Path(conway_genera.__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_phi_json(capsys):
    code, out, _ = run(capsys, "compute", "--class", "4D", "--sign", "+",
                       "--ell", "2", "--prec", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    rows = {(r["q_exp"], r["y_exp"]): r["coeff"] for r in payload["coefficients"]}
    assert rows[("0", "-1")] == "2"
    assert rows[("0", "0")] == "-4"


def test_compute_is_deterministic(capsys):
    args = ("compute", "--class", "5C", "--sign", "-", "--prec", "3",
            "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_compute_high_lambency(capsys):
    code, out, _ = run(capsys, "compute", "--class", "1A", "--ell", "7",
                       "--prec", "2", "--format", "text")
    assert code == 0
    # index 6: the ground row spans y^-6 .. y^6
    assert any(line.split()[1] == "6" for line in out.splitlines())


def test_unknown_class_exits_2(capsys):
    code, _, err = run(capsys, "compute", "--class", "23A", "--prec", "2")
    assert code == 2
    assert "not in table" in err


def test_lambency_unavailable_exits_2(capsys):
    code, _, err = run(capsys, "compute", "--class", "5C", "--ell", "3",
                       "--prec", "2")
    assert code == 2


def _no_series(monkeypatch):
    def no_series(*args, **kwargs):
        raise AssertionError("a series was built")

    for cls in (QSeries, JacobiSeries):
        monkeypatch.setattr(cls, "__init__", no_series)
        monkeypatch.setattr(cls, "from_parts", no_series)


@pytest.mark.parametrize("what, flags", [
    ("f", ("--ell", "3")), ("f", ("--ell", "7")), ("ts", ("--ell", "4")),
    ("ts-tw", ("--ell", "5")), ("ts", ("--sign", "-")), ("ts-tw", ("--sign", "-")),
    ("ts", ("--ell", "7", "--sign", "-")),
])
def test_compute_rejects_a_flag_its_series_would_ignore(capsys, monkeypatch, what, flags):
    # F is taken at lambency 2; the trace series take no lambency and no D sign
    _no_series(monkeypatch)
    code, out, err = run(capsys, "compute", "--class", "5C", "--what", what, *flags,
                         "--prec", "2")
    assert code == 2 and out == ""
    assert err == f"error: --what {what} takes no {' '.join(flags[:2])}\n"


@pytest.mark.parametrize("what, flags", [
    ("f", ("--ell", "2", "--sign", "-")), ("ts", ("--ell", "2", "--sign", "+")),
    ("ts-tw", ()), ("phi", ("--ell", "3", "--sign", "-")),
])
def test_compute_accepts_the_flags_its_series_reads(capsys, what, flags):
    code, out, err = run(capsys, "compute", "--class", "4G", "--what", what, *flags,
                         "--prec", "2")
    assert code == 0 and out and err == ""


def test_verify_theta_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theta", "--prec", "3")
    assert code == 0
    assert "[PASS]" in out


def test_k3_suite_fails_a_zero_genus(capsys, monkeypatch):
    monkeypatch.setattr(genera, "k3_elliptic_genus",
                        lambda orders: JacobiSeries.zero(24 * orders))
    code, out, _ = run(capsys, "verify", "--suite", "k3", "--prec", "2")
    assert code == 1
    assert ("[FAIL] k3-genus[z=0 value 24]  first deviation at q^0 y^0: 0 != 24"
            in out.splitlines())


def test_verify_coincidences_reports_skips(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "coincidences", "--prec", "2")
    assert code == 0
    assert "[SKIP]" in out and "external" in out


@pytest.mark.parametrize("suite,ells,count", [
    ("decomposition", (2,), 22), ("higher-lambency", (3, 4, 5, 7), 10)])
def test_decomposition_suites_end_with_one_sign_flip_per_class_with_d(
        capsys, data, suite, ells, count):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--prec", "2")
    expected = [f"[PASS] sign-flip[{rec.co0_name}, ell {ell}]"
                for ell in ells for rec in data.for_lambency(ell)
                if not rec.d_magnitude[ell].is_zero]
    assert code == 0 and len(expected) == count
    assert out.splitlines()[-count:] == expected


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "fourier", "--prec", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["suite"] == "fourier"
    assert payload[0]["ok"] is True


def test_removed_constants_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "--suite", "constants"])
    err = capsys.readouterr().err
    assert exit_info.value.code == 2
    assert "invalid choice: 'constants'" in err and "Traceback" not in err


def test_list_classes(capsys):
    code, out, _ = run(capsys, "list-classes", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 42
    names = {r["co0"] for r in rows}
    assert {"1A", "15D", "8I"} <= names


def test_export_coincidences(capsys):
    code, out, _ = run(capsys, "export", "--table", "coincidences",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert any(r["kind"] == "external" for r in rows)


def test_data_dir_override(tmp_path, capsys):
    code, _, err = run(capsys, "--data-dir", str(tmp_path), "list-classes")
    assert code == 3
    assert "data error" in err


def test_env_data_dir_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MOONSHINE_DATA_DIR", str(tmp_path))
    code, _, err = run(capsys, "list-classes")
    assert code == 3
    assert "data error" in err


@pytest.mark.parametrize("suite, prec", [("k3", "-1"), ("sigma", "0"), ("oracle", "0")])
def test_verify_bad_precision_is_a_usage_error(capsys, suite, prec):
    code, out, err = run(capsys, "verify", "--suite", suite, "--prec", prec)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("what", ["phi", "ts", "ts-tw", "f"])
@pytest.mark.parametrize("prec", ["0", "-2"])
def test_compute_nonpositive_precision_is_a_usage_error(capsys, what, prec):
    code, out, err = run(capsys, "compute", "--class", "2B", "--what", what,
                         "--prec", prec)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("suite", [name for name in cli._SUITES if name != "oracle"])
@pytest.mark.parametrize("orders", [0, -2])
def test_every_suite_function_rejects_less_than_one_order(data, suite, orders):
    # the library below the CLI's --prec check: oracle runs at a fixed precision
    run_suite, _ = cli._SUITES[suite]
    with pytest.raises(ValueError, match="^precision must be at least one q-order$"):
        run_suite(data, orders)


def test_every_suite_runs_at_one_order(capsys):
    code, out, err = run(capsys, "verify", "--suite", "all", "--prec", "1")
    assert code == 0 and err == ""
    assert "[PASS] " in out and "[FAIL] " not in out


#: --prec values outside 1..MAX_ORDERS
_OUT_OF_RANGE = ("0", "-1", str(cli.MAX_ORDERS + 1))


@pytest.mark.parametrize("argv", [
    ("compute", "--class", "2B", "--prec", "100000"),
    ("compute", "--class", "2B", "--what", "f", "--prec", str(cli.MAX_ORDERS + 1)),
    ("verify", "--suite", "jacobi", "--prec", "100000"),
    ("verify", "--suite", "all", "--prec", str(cli.MAX_ORDERS + 1)),
    *(pytest.param(("verify", "--suite", suite, "--prec", prec), id=f"verify-{suite}-{prec}")
      for suite in ("all", *cli._SUITES) for prec in _OUT_OF_RANGE),
    *(pytest.param(("compute", "--class", "2B", "--what", what, "--prec", prec),
                   id=f"compute-{what}-{prec}")
      for what in ("phi", "ts", "ts-tw", "f") for prec in _OUT_OF_RANGE),
])
def test_precision_above_the_bound_fails_before_any_series_is_built(
        capsys, monkeypatch, argv):
    _no_series(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(cli.MAX_ORDERS) in err


def _cli_process(*argv, **kwargs):
    """`python -m conway_genera argv` on this package's source, stderr piped."""
    src = Path(conway_genera.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen([sys.executable, "-m", "conway_genera", *argv],
                            stderr=subprocess.PIPE, env=env, **kwargs)


def test_module_entry_point_runs_the_cli():
    proc = _cli_process("list-classes", stdout=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert len(out.splitlines()) == 42


#: standard-library modules that start-up does without: `dataclasses`
#: imports `inspect`, and `importlib.resources` the other four
START_UP_FREE = ("dataclasses", "inspect", "importlib.resources", "pathlib", "typing",
                 "tempfile", "zipfile")


def test_start_up_imports_no_module_it_does_without():
    # -S: no site hook can load one of them before the package does
    src = Path(conway_genera.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("MOONSHINE_DATA_DIR", None)
    code = ("import sys, conway_genera.cli\n"
            "conway_genera.cli.bundled_data()\n"
            f"print(sorted(name for name in {START_UP_FREE!r} if name in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _run_into_closed_pipe(*argv):
    """Exit code and stderr of a run whose stdout has no reader from the start."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_process(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    return proc.returncode, err


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "coincidences"), ("list-classes",)], ids=["verify", "list-classes"])
def test_closed_pipe_ends_the_output_not_the_run(argv):
    assert _run_into_closed_pipe(*argv) == (0, b"")


def test_reader_that_leaves_after_one_line_ends_the_output_not_the_run():
    # 88 KB, more than a pipe holds, so the writer meets the closed pipe
    proc = _cli_process("compute", "--class", "1A", "--ell", "7", "--prec", "30",
                        "--format", "json", stdout=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")


def test_failing_verify_into_closed_pipe_still_exits_1(tmp_path):
    classes = _bundled("classes.json")
    d_mag = next(e for e in classes["classes"] if e["co0"] == "4B")["d_mag"]
    d_mag["3"] = "-" + d_mag["3"]   # fails coincidence[ell 3: 4B, D sign -1]
    path = _data_dir(tmp_path, classes, _bundled("coincidences.json"))
    assert _run_into_closed_pipe("--data-dir", path, "verify", "--suite", "coincidences") \
        == (1, b"")


def test_write_is_the_only_writer_of_stdout():
    tree = ast.parse(Path(cli.__file__).read_text())
    writer = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_write")
    inside = {id(node) for node in ast.walk(writer)}
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
            assert any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                       for kw in node.keywords), f"line {node.lineno} prints to stdout"
        assert not (isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout"), \
            f"line {node.lineno} uses sys.stdout"


def _data_dir(tmp_path, classes, coincidences):
    (tmp_path / "classes.json").write_text(json.dumps(classes))
    (tmp_path / "coincidences.json").write_text(json.dumps(coincidences))
    return str(tmp_path)


def _bundled(name):
    return json.loads((BUNDLED / name).read_text())


@pytest.mark.parametrize("name, text, message", [
    ("classes.json", "{", "cannot read class data: Expecting property name"),
    ("coincidences.json", "{", "cannot read coincidence data: Expecting property name"),
    ("classes.json", "[]", "class data has no 'classes' list: TypeError("),
    ("coincidences.json", "{}", "coincidence data has no 'relations' list: KeyError('relations')"),
    ("classes.json", '{"classes": 5}', "class data has no 'classes' list: got int\n"),
    ("coincidences.json", '{"relations": null}',
     "coincidence data has no 'relations' list: got NoneType\n"),
], ids=["classes-json", "coincidences-json", "classes-list", "relations-list",
        "classes-not-a-list", "relations-not-a-list"])
def test_unreadable_table_is_a_data_error_naming_it(tmp_path, capsys, name, text, message):
    path = _data_dir(tmp_path, _bundled("classes.json"), _bundled("coincidences.json"))
    (tmp_path / name).write_text(text)
    code, _, err = run(capsys, "--data-dir", path, "list-classes")
    assert code == 3 and err.startswith(f"data error: {message}") and err.count("\n") == 1


def test_classes_without_class_list_is_a_data_error(tmp_path, capsys):
    path = _data_dir(tmp_path, {"rows": []}, _bundled("coincidences.json"))
    code, _, err = run(capsys, "--data-dir", path, "list-classes")
    assert code == 3 and err.startswith("data error:")


@pytest.mark.parametrize("row, ell", [("1A", "9"), ("2B", "7")],
                         ids=["unsupported-lambency", "fixed-space-too-small"])
def test_d_mag_key_failing_its_invariant_is_a_data_error(tmp_path, capsys, row, ell):
    classes = _bundled("classes.json")
    next(e for e in classes["classes"] if e["co0"] == row)["d_mag"][ell] = "0"
    path = _data_dir(tmp_path, classes, _bundled("coincidences.json"))
    code, _, err = run(capsys, "--data-dir", path, "list-classes")
    assert code == 3 and err.startswith(f"data error: row {row}, field d_mag[{ell}]")


def test_blank_inside_a_table_constant_is_a_data_error(tmp_path, capsys):
    # "4 096" used to load as 4096: the parser deleted every blank
    classes = _bundled("classes.json")
    next(e for e in classes["classes"] if e["co0"] == "1A")["c_neg_g"] = "4 096"
    path = _data_dir(tmp_path, classes, _bundled("coincidences.json"))
    code, out, err = run(capsys, "--data-dir", path, "list-classes")
    assert code == 3 and out == ""
    assert err.startswith("data error: row 1A: cannot parse radical-scalar term '4 096'")
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("old, new", [("2", " +2 "), (None, "05")],
                         ids=["padded-plus-sign", "leading-zero"])
def test_d_mag_key_that_is_not_plain_decimal_is_a_data_error(tmp_path, capsys, old, new):
    # "05" beside "5" used to load as a second lambency-5 entry that overwrote the first
    classes = _bundled("classes.json")
    d_mag = next(e for e in classes["classes"] if e["co0"] == "2B")["d_mag"]
    d_mag[new] = d_mag.pop(old) if old else "-16"
    path = _data_dir(tmp_path, classes, _bundled("coincidences.json"))
    code, out, err = run(capsys, "--data-dir", path, "list-classes")
    assert code == 3 and out == ""
    assert err.startswith(f"data error: row 2B: field d_mag key {new!r}")
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("name, old, new, message", [
    ("classes.json", '"5": "16"', '"5": "16", "5": "-16"',
     "cannot read class data: duplicate key '5'"),
    ("coincidences.json", '"lambency": 2', '"lambency": 2, "lambency": 3',
     "cannot read coincidence data: duplicate key 'lambency'"),
], ids=["classes", "coincidences"])
def test_duplicate_key_is_a_data_error(tmp_path, capsys, name, old, new, message):
    # json.load alone keeps the last of two equal keys, so the first case flips a D sign
    path = _data_dir(tmp_path, _bundled("classes.json"), _bundled("coincidences.json"))
    text = (tmp_path / name).read_text()
    assert old in text
    (tmp_path / name).write_text(text.replace(old, new, 1))
    code, out, err = run(capsys, "--data-dir", path, "list-classes")
    assert code == 3 and out == ""
    assert err == f"data error: {message}\n"


def test_table_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    path = _data_dir(tmp_path, _bundled("classes.json"), _bundled("coincidences.json"))
    (tmp_path / "classes.json").write_bytes(b'{"classes": ["\xff"]}')
    code, out, err = run(capsys, "--data-dir", path, "list-classes")
    assert code == 3 and out == ""
    assert err.startswith("data error: cannot read class data: 'utf-8' codec")
    assert err.count("\n") == 1


@pytest.mark.parametrize("suite", ["eta-identity", "fourier", "all"])
def test_row_fixing_less_than_a_4_space_is_a_data_error(tmp_path, capsys, suite):
    classes = _bundled("classes.json")
    classes["classes"].append({
        "co0": "2X", "co1": "2X", "pi_g": [[1, -24], [2, 24]], "pi_neg_g": [[1, 24]],
        "c_neg_g": "0", "d_mag": {}, "gamma_g": "1+", "gamma_neg_g": "1+", "level": 2})
    path = _data_dir(tmp_path, classes, _bundled("coincidences.json"))
    code, out, err = run(capsys, "--data-dir", path, "verify", "--suite", suite)
    assert code == 3 and out == ""
    assert err.startswith("data error: row 2X, field pi_g:") and "4-space" in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("text", ["1+", "4096+"])
def test_malformed_constant_is_a_data_error(tmp_path, capsys, text):
    classes = _bundled("classes.json")
    next(e for e in classes["classes"] if e["co0"] == "1A")["c_neg_g"] = text
    path = _data_dir(tmp_path, classes, _bundled("coincidences.json"))
    code, out, err = run(capsys, "--data-dir", path, "list-classes")
    assert code == 3 and out == ""
    assert err.startswith("data error: row 1A: cannot parse radical-scalar string")
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("name, path, value, message", [
    ("classes.json", ("classes", 0, "c_neg_g"), 0,
     "row 1A: field c_neg_g has type int, not str"),
    ("classes.json", ("classes", 0, "d_mag", "7"), 1,
     "row 1A: field d_mag[7] has type int, not str"),
    ("classes.json", ("classes", 0, "d_mag"), [1, 2],
     "row 1A: field d_mag has type list, not dict"),
    ("classes.json", ("classes", 0, "co0"), ["1A"],
     "row ['1A']: field co0 has type list, not str"),
    ("classes.json", ("classes", 0, "co1"), ["1A"],
     "row 1A: field co1 has type list, not str"),
    ("coincidences.json", ("relations", 0, "lhs", "class"), ["1A"],
     "TypeError('field lhs.class has type list, not str')"),
    ("coincidences.json", ("relations", 2, "rhs", 0, "class"), ["2B"],
     "TypeError('field rhs class has type list, not str')"),
    ("classes.json", ("classes", 1, "pi_g", 0, 1), 8.5,
     "row 2B: field pi_g has type float, not int"),
    ("classes.json", ("classes", 1, "pi_neg_g", 0, 0), True,
     "row 2B: field pi_neg_g has type bool, not int"),
    ("coincidences.json", ("relations", 0, "lambency"), 2.5,
     "TypeError('field lambency has type float, not int')"),
    ("coincidences.json", ("relations", 0, "lhs", "sign"), False,
     "TypeError('field lhs.sign has type bool, not int')"),
    ("coincidences.json", ("relations", 2, "rhs", 0, "sign"), 0.0,
     "TypeError('field rhs sign has type float, not int')"),
    ("coincidences.json", ("relations", 2, "rhs", 1, "coeff"), 2.0000000001,
     "TypeError('field rhs coeff has type float, not str')"),
    ("classes.json", ("classes", 0, "gamma_g"), 7,
     "row 1A: field gamma_g has type int, not str"),
    ("classes.json", ("classes", 0, "gamma_neg_g"), None,
     "row 1A: field gamma_neg_g has type NoneType, not str"),
    ("classes.json", ("classes", 0, "level"), "x",
     "row 1A: field level has type str, not int"),
    ("classes.json", ("classes", 0, "level"), 2.5,
     "row 1A: field level has type float, not int"),
    ("classes.json", ("classes", 0, "level"), True,
     "row 1A: field level has type bool, not int"),
    ("coincidences.json", ("relations", 0, "level"), "x",
     "TypeError('field level has type str, not int')"),
    ("coincidences.json", ("relations", 0, "kind"), 3,
     "TypeError('field kind has type int, not str')"),
    ("coincidences.json", ("relations", 0, "source"), None,
     "TypeError('field source has type NoneType, not str')"),
], ids=["c_neg_g-number", "d_mag-value-number", "d_mag-list", "co0-list", "co1-list",
        "lhs-class-list", "rhs-class-list", "pi_g-exponent-float", "pi_neg_g-part-bool",
        "lambency-float", "lhs-sign-bool", "rhs-sign-float", "rhs-coeff-number",
        "gamma_g-number", "gamma_neg_g-null", "level-text", "level-float", "level-bool",
        "coincidence-level-text", "kind-number", "source-null"])
def test_wrongly_typed_field_is_a_data_error(tmp_path, capsys, name, path, value, message):
    tables = {n: _bundled(n) for n in ("classes.json", "coincidences.json")}
    *keys, last = path
    target = tables[name]
    for key in keys:
        target = target[key]
    target[last] = value
    directory = _data_dir(tmp_path, tables["classes.json"], tables["coincidences.json"])
    code, out, err = run(capsys, "--data-dir", directory, "list-classes")
    assert code == 3 and out == ""
    assert err.startswith("data error: ") and message in err
    assert "Traceback" not in err and err.count("\n") == 1


#: well-formed and malformed radical strings for d_mag values
_RADICALS = ("0", "1", "-1", "16", "1/2", "2*sqrt(2)", "-4*sqrt(3)", "sqrt(5)",
             "sqrt(7)", "", "x", "1/0", "sqrt(2)+")


def _negated(text):
    """A radical string with its leading sign flipped."""
    return text[1:] if text.startswith("-") else f"-{text}"


@st.composite
def _one_field_mutated(draw):
    """The bundled class table with one field of one row changed."""
    classes = _bundled("classes.json")
    entry = draw(st.sampled_from(classes["classes"]))
    field = draw(st.sampled_from(("d_mag key", "d_mag value", "d_mag sign", "c_neg_g sign",
                                  "pi_g", "pi_neg_g")))
    if field == "d_mag key":
        old = draw(st.sampled_from(sorted(entry["d_mag"])))
        entry["d_mag"][str(draw(st.integers(-1, 10)))] = entry["d_mag"].pop(old)
    elif field == "d_mag value":
        ell = draw(st.sampled_from(sorted(entry["d_mag"])))
        entry["d_mag"][ell] = draw(st.sampled_from(_RADICALS))
    elif field == "d_mag sign":  # the loader checks only the square of a D value
        ell = draw(st.sampled_from(sorted(entry["d_mag"])))
        entry["d_mag"][ell] = _negated(entry["d_mag"][ell])
    elif field == "c_neg_g sign":  # and of C(-g)
        entry["c_neg_g"] = _negated(entry["c_neg_g"])
    else:
        pairs = entry[field]
        i = draw(st.integers(0, len(pairs)))  # len(pairs) appends a pair
        exponent = draw(st.one_of(st.integers(-30, 30), st.floats(-30, 30), st.text(max_size=2),
                                  st.booleans()))
        pairs[i:i + 1] = [[draw(st.integers(0, 30)), exponent]]
    return classes


@settings(max_examples=120, deadline=None)
@given(_one_field_mutated(), st.sampled_from(sorted(cli._SUITES)), st.integers(1, 3))
def test_mutated_class_row_loads_or_is_a_data_error(classes, suite, prec):
    # at --prec 1 a form times eta_{-g}, which starts at q^1, adds nothing,
    # so a wrong C(-g) shows only from --prec 2
    coincidences = _bundled("coincidences.json")
    codes, errs = [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = _data_dir(Path(tmp), classes, coincidences)
        for argv in (["list-classes"], ["verify", "--suite", suite, "--prec", str(prec)]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                codes.append(cli.main(["--data-dir", path, *argv]))
            errs.append(err.getvalue())
    (listed, verified), (list_err, verify_err) = codes, errs
    assert listed in (0, 3)
    assert listed == 0 or list_err.startswith("data error: row")
    # a table that loads runs the suite to a verdict or a data error; one
    # that does not is refused by verify with the same message
    assert verified in ((0, 1, 3) if listed == 0 else (3,)), (suite, verify_err)
    assert listed == 0 or verify_err == list_err
    assert "Traceback" not in verify_err


@pytest.mark.parametrize("row", [e["co0"] for e in _bundled("classes.json")["classes"]
                                 if e["c_neg_g"] != "0"])
def test_negated_c_neg_g_loads_and_fails_the_eta_identity(tmp_path, capsys, row):
    # C(-g) first enters the eta identity at q^1, so --prec 1 cannot see its sign;
    # at q^1 the two forms differ by the table's C(-g)
    classes = _bundled("classes.json")
    entry = next(e for e in classes["classes"] if e["co0"] == row)
    entry["c_neg_g"] = _negated(entry["c_neg_g"])
    path = _data_dir(tmp_path, classes, _bundled("coincidences.json"))
    for prec, want in (("1", 0), ("2", 1)):
        code, out, err = run(capsys, "--data-dir", path, "verify", "--suite", "eta-identity",
                             "--prec", prec)
        assert code == want and err == ""
    fails = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert fails == [f"[FAIL] eta-identity[{row}]  first deviation at q^1 y^0: "
                     f"{entry['c_neg_g']} != 0"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("classes.json", "coincidences.json")), st.data())
def test_table_cut_at_a_byte_offset_is_a_data_error(name, data):
    raw = (BUNDLED / name).read_bytes().rstrip()
    cut = data.draw(st.integers(0, len(raw) - 1), label="cut")  # before the closing brace
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = _data_dir(Path(tmp), _bundled("classes.json"), _bundled("coincidences.json"))
        (Path(tmp) / name).write_bytes(raw[:cut])
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["--data-dir", path, "list-classes"])
    assert code == 3 and out.getvalue() == ""
    assert err.getvalue().startswith("data error: ")
    assert "Traceback" not in err.getvalue() and err.getvalue().count("\n") == 1


def test_coincidence_row_without_lambency_is_a_data_error(tmp_path, capsys):
    coincidences = _bundled("coincidences.json")
    del coincidences["relations"][0]["lambency"]
    path = _data_dir(tmp_path, _bundled("classes.json"), coincidences)
    code, _, err = run(capsys, "--data-dir", path, "list-classes")
    assert code == 3 and err.startswith("data error:")


def _without_identity_class():
    """The bundled tables with class 1A and every coincidence row naming it removed."""
    classes = _bundled("classes.json")
    classes["classes"] = [e for e in classes["classes"] if e["co0"] != "1A"]
    coincidences = _bundled("coincidences.json")
    coincidences["relations"] = [
        r for r in coincidences["relations"]
        if "1A" not in {r["lhs"]["class"], *(item["class"] for item in r["rhs"])}]
    return classes, coincidences


def _without_lambency_2_entries():
    """The bundled tables with the lambency-2 entries of 1A and 4D and every
    lambency-2 coincidence row naming either removed."""
    classes = _bundled("classes.json")
    for entry in classes["classes"]:
        if entry["co0"] in ("1A", "4D"):
            del entry["d_mag"]["2"]
    coincidences = _bundled("coincidences.json")
    coincidences["relations"] = [
        r for r in coincidences["relations"]
        if r["lambency"] != 2
        or not {"1A", "4D"} & {r["lhs"]["class"], *(item["class"] for item in r["rhs"])}]
    return classes, coincidences


@pytest.mark.parametrize("tables, suite, reported, compute_error", [
    *(pytest.param(_without_identity_class, suite, "class 1A,", "not in table", id=suite)
      for suite in ("k3", "fourier", "oracle")),
    *(pytest.param(_without_lambency_2_entries, suite, "class 1A at lambency 2,",
                   "not in the lambency-2 table", id=f"{suite}-without-lambency-2")
      for suite in ("k3", "oracle", "all")),
])
def test_suite_missing_a_class_it_names_is_a_data_error(
        tmp_path, capsys, tables, suite, reported, compute_error):
    path = _data_dir(tmp_path, *tables())
    code, out, err = run(capsys, "--data-dir", path, "verify", "--suite", suite,
                         "--prec", "1")
    assert code == 3 and out == ""
    # `all` meets the class first in the k3 suite
    assert err.startswith(f"data error: suite {'k3' if suite == 'all' else suite} "
                          f"needs {reported}")
    assert "Traceback" not in err and err.count("\n") == 1
    for what in ("phi", "f"):
        code, _, err = run(capsys, "--data-dir", path, "compute", "--class", "1A",
                           "--what", what)
        assert code == 2 and compute_error in err, what


def _with_relation(relation):
    coincidences = _bundled("coincidences.json")
    coincidences["relations"].append(relation)
    return coincidences


@pytest.mark.parametrize("relation, message", [
    ({"lambency": 7, "lhs": {"class": "2B", "sign": 0}, "kind": "internal",
      "rhs": [{"coeff": "1", "class": "2C", "sign": 0}]},
     "data error: row 2B: class 2B is not in the lambency-7 table"),
    ({"lambency": 6, "lhs": {"class": "1A", "sign": 0}, "kind": "internal",
      "rhs": [{"coeff": "1", "class": "2B", "sign": 0}]},
     "lambency 6 is not one of (2, 3, 4, 5, 7)"),
    ({"lambency": 2, "lhs": {"class": "2C", "sign": 0}, "kind": "internal",
      "rhs": [{"coeff": "1", "class": "2B", "sign": 2}]},
     "sign 2 of class 2B is not -1, 0 or +1"),
], ids=["class-outside-the-lambency-table", "unsupported-lambency", "sign-outside-range"])
def test_coincidence_row_verify_cannot_evaluate_is_a_data_error(
        tmp_path, capsys, relation, message):
    path = _data_dir(tmp_path, _bundled("classes.json"), _with_relation(relation))
    code, out, err = run(capsys, "--data-dir", path, "list-classes")
    assert code == 3 and out == ""
    assert err.startswith("data error: ") and message in err
    assert "Traceback" not in err and err.count("\n") == 1


def _exit_code_and_stderr(argv):
    """cli.main's exit code and stderr, with argparse's SystemExit(2) as code 2;
    any other exception escapes."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            code = 2
    return code, err.getvalue()


def _assert_contract(code, err, codes):
    assert code in codes
    assert code != 0 or err == ""
    assert code != 3 or (err.startswith("data error: ") and err.count("\n") == 1)


#: flag -> values drawn for it, valid and invalid; --data-dir names the
#: bundled tables or a missing directory and goes before the subcommand
_FLAGS = {
    "--class": ("1A", "4D", "ZZ", ""),
    "--ell": ("2", "7", "6", "x"),
    "--sign": ("+", "-", "0"),
    "--prec": ("1", "2", "0", "-1", "97", "x"),
    "--what": ("phi", "ts", "ts-tw", "f", "g"),
    "--format": ("text", "json", "csv", "xml"),
    "--table": ("classes", "coincidences", "rows"),
    "--suite": ("theta", "k3", "coincidences", "fourier", "sigma", "constants"),
    "--data-dir": (str(BUNDLED), str(BUNDLED / "missing")),
}


#: subcommand -> the flags it takes, besides the top-level --data-dir
_OWN_FLAGS = {
    "compute": ("--class", "--ell", "--sign", "--prec", "--what", "--format"),
    "verify": ("--suite", "--prec", "--format"),
    "list-classes": ("--format",),
    "export": ("--table", "--format"),
}


@st.composite
def _argv(draw):
    """A subcommand and up to four drawn flags: one draw in four may take any
    flag, the others take the subcommand's own."""
    command = draw(st.sampled_from((*_OWN_FLAGS, "run")))
    flags = (*_OWN_FLAGS.get(command, ()), "--data-dir") if draw(st.integers(0, 3)) \
        else tuple(_FLAGS)
    pairs = [(flag, draw(st.sampled_from(_FLAGS[flag])))
             for flag in draw(st.lists(st.sampled_from(flags), max_size=4))]
    # compute needs a class, and verify runs every suite without a --suite
    required = {"compute": "--class", "verify": "--suite"}.get(command)
    if required and required not in dict(pairs):
        pairs.append((required, draw(st.sampled_from(_FLAGS[required]))))
    top = [token for flag, value in pairs if flag == "--data-dir" for token in (flag, value)]
    rest = [token for flag, value in pairs if flag != "--data-dir" for token in (flag, value)]
    return [*top, command, *rest]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_argv())
def test_cli_contract_holds_for_drawn_argv(argv):
    # nothing fails on the bundled tables, so exit 1 would be a defect
    _assert_contract(*_exit_code_and_stderr(argv), (0, 2, 3))


@st.composite
def _one_coincidence_field_mutated(draw):
    """The bundled coincidence table with one field of one row changed."""
    coincidences = _bundled("coincidences.json")
    row = draw(st.sampled_from(coincidences["relations"]))
    entries = [row["lhs"], *row["rhs"]]
    change = draw(st.sampled_from(("drop", "retype", "unknown class", "sign 2", "lambency 6")))
    if change in ("drop", "retype"):
        target, key = draw(st.sampled_from(
            [(entry, key) for entry in (row, *entries) for key in entry]))
        if change == "drop":
            del target[key]
        else:
            target[key] = draw(st.sampled_from((None, 2, 2.5, True, "2", [], {})).filter(
                lambda value: type(value) is not type(target[key])))
    elif change == "lambency 6":
        row["lambency"] = 6
    else:
        field, value = ("class", "ZZ") if change == "unknown class" else ("sign", 2)
        draw(st.sampled_from(entries))[field] = value
    return coincidences


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_one_coincidence_field_mutated())
def test_mutated_coincidence_row_loads_or_is_a_data_error(coincidences):
    with tempfile.TemporaryDirectory() as tmp:
        path = _data_dir(Path(tmp), _bundled("classes.json"), coincidences)
        _assert_contract(*_exit_code_and_stderr(["--data-dir", path, "list-classes"]), (0, 3))
