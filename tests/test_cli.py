import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqfix
from seqfix import (
    BoundedSeq,
    BoundViolationError,
    FiniteArityMap,
    IterationTrace,
    LinearSeqMap,
    TraceStep,
    empirical_lip_lower_bound,
    find_p_certificate,
    find_sup_certificate,
)
from seqfix.cli import (
    EXIT_BOUND_VIOLATION,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNCERTIFIED,
    _MAP_KINDS,
    _MODES,
    ConfigError,
    ProblemConfig,
    _fmt,
    _trace_rows,
    config_to_dict,
    parse_config,
    run,
)
from seqfix.maps import _random_seq

RECUR_MAP = {
    "linear": {
        "head_coeffs": [1.0 / 3.0],
        "tail_coeff": 1.0 / 6.0,
        "tail_ratio": 0.5,
        "offset": 1.0,
    }
}


def problem(pid, mode, **extra):
    entry = {
        "id": pid,
        "map": RECUR_MAP,
        "initial": {"prefix": [], "tail": 0.0},
        "tolerance": 1e-6,
        "mode": mode,
    }
    entry.update(extra)
    return entry


def write_config(tmp_path, problems, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"problems": problems}))
    return str(path)


def test_full_run(tmp_path, capsys):
    config = write_config(
        tmp_path,
        [
            problem("solve-recursion", "solve"),
            problem("certify-recursion", "certify", q0=0.5),
            problem("trace-recursion", "trace", k_max=10),
            problem("truncate-recursion", "truncate", n_max=6, base=0.0),
            {
                "id": "compare-half-sup",
                "map": {"sup_half": {}},
                "initial": {"prefix": [0.6], "tail": 0.0},
                "tolerance": 1e-6,
                "mode": "compare",
                "k_max": 30,
            },
            {
                "id": "solve-presic",
                "map": {"presic": {"rule": "affine", "coeffs": [0.25, 0.25], "offset": 1.0}},
                "initial": {"prefix": [], "tail": 0.0},
                "tolerance": 1e-8,
                "mode": "solve",
            },
        ],
    )
    out = tmp_path / "out"
    assert run(config, str(out)) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6

    assert lines[0].startswith("solve-recursion solve x_star=")
    x_star = float(lines[0].split("x_star=")[1].split()[0])
    k_used = int(lines[0].split("k_used=")[1])
    assert abs(x_star - 3.0) <= 1e-6
    assert k_used <= 150

    solve_rows = (out / "solve-recursion.csv").read_text().splitlines()
    assert solve_rows[0] == "k,x_k,bound,residual"
    assert len(solve_rows) == k_used + 1
    first = solve_rows[1].split(",")
    assert float(first[1]) == 1.0  # x^1 equals the offset

    assert "certify-recursion certify OK" in lines[1]
    certify_rows = (out / "certify-recursion.csv").read_text().splitlines()
    assert certify_rows[0] == "family,q,p,lip,empirical_lower_bound"
    assert certify_rows[1].startswith("sup,")
    assert certify_rows[2].startswith("p,")

    compare_rows = (out / "compare-half-sup.csv").read_text().splitlines()
    assert compare_rows[0] == "k,x_k,y_k"
    assert compare_rows[1].split(",")[1] == ""  # no generalized iterate at k=0
    last = compare_rows[-1].split(",")
    assert float(last[1]) >= 0.3  # generalized iterates stay up
    assert float(last[2]) < 1e-6  # diagonal-map iterates decay

    assert "solve-presic solve x_star=" in lines[5]
    assert abs(float(lines[5].split("x_star=")[1].split()[0]) - 2.0) <= 1e-8

    truncate_rows = (out / "truncate-recursion.csv").read_text().splitlines()
    assert truncate_rows[0] == "n,x_n,error,bound"
    assert len(truncate_rows) == 7


def test_emitted_floats_round_trip():
    trace = IterationTrace(
        (TraceStep(1, 1.0 / 3.0, 0.123456789123456789, 2.0 / 7.0),
         TraceStep(2, -1.5e-17, None, 3.0)),
        1.0,
    )
    rows = [_MODES["trace"][0]] + _trace_rows(trace)  # the table a trace problem writes
    assert rows[0] == "k,x_k,bound,residual"
    assert len(rows) == 3
    k, x, bound, residual = rows[1].split(",")
    assert float(x) == 1.0 / 3.0
    assert float(bound) == 0.123456789123456789
    assert float(residual) == 2.0 / 7.0
    assert rows[2].split(",")[2] == ""  # absent bound stays an empty field


def test_trace_mode_without_certificate_leaves_bounds_empty(tmp_path, capsys):
    config = write_config(
        tmp_path,
        [{
            "id": "trace-half-sup",
            "map": {"sup_half": {}},
            "initial": {"prefix": [0.6], "tail": 0.0},
            "tolerance": 1e-6,
            "mode": "trace",
            "k_max": 5,
        }],
    )
    out = tmp_path / "out"
    assert run(config, str(out)) == EXIT_OK
    rows = (out / "trace-half-sup.csv").read_text().splitlines()
    assert all(row.split(",")[2] == "" for row in rows[1:])


def test_config_errors_exit_1(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert run(str(bad_json), str(tmp_path / "o1")) == EXIT_CONFIG
    missing = write_config(tmp_path, [{"id": "x", "mode": "solve"}], name="missing.json")
    assert run(missing, str(tmp_path / "o2")) == EXIT_CONFIG
    bad_mode = write_config(tmp_path, [problem("x", "explode")], name="badmode.json")
    assert run(bad_mode, str(tmp_path / "o3")) == EXIT_CONFIG
    bad_value = write_config(tmp_path, [problem("x", "solve", tolerance="tiny")], name="badvalue.json")
    assert run(bad_value, str(tmp_path / "o4")) == EXIT_CONFIG
    # "$" also matches before a final newline, which would name a table "a\n.csv"
    newline_id = write_config(tmp_path, [problem("a\n", "solve")], name="newline.json")
    assert run(newline_id, str(tmp_path / "o5")) == EXIT_CONFIG
    assert not (tmp_path / "o5").exists()
    capsys.readouterr()


@pytest.mark.parametrize("text, message", [
    (b"\xff\xfe{", "cannot read config "),  # not UTF-8
    (b"[" * 100_000 + b"]" * 100_000, "invalid JSON: "),  # nested beyond the recursion limit
], ids=["not-utf-8", "deep-nesting"])
def test_unreadable_config_exits_1_without_traceback(tmp_path, text, message):
    config = tmp_path / "config.json"
    config.write_bytes(text)
    env = dict(os.environ, PYTHONPATH=str(Path(seqfix.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "seqfix.cli", "--config", str(config), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and message in done.stderr, done.stderr


#: (entry, the error after "problem '<id>': "): non-finite, fractional and boolean values where numbers go
MALFORMED_VALUES = [
    (problem("nan-prefix", "solve", initial={"prefix": [0.5, float("nan")], "tail": 0.0}),
     "initial prefix entry must be finite, got nan"),
    (problem("inf-tail", "solve", initial={"prefix": [], "tail": float("inf")}), "initial tail must be finite, got inf"),
    (problem("nan-coeff", "solve", map={"linear": {"head_coeffs": [float("nan")]}}),
     "head_coeffs entry must be finite, got nan"),
    (problem("fractional-k-max", "trace", k_max=1.7), "k_max must be an integer, got 1.7"),
    (problem("fractional-n-max", "truncate", n_max=2.5, base=0.0), "n_max must be an integer, got 2.5"),
    (problem("bool-k-max", "trace", k_max=True), "k_max must be a number, got True"),
    (problem("inf-k-max", "trace", k_max=float("inf")), "k_max must be finite, got inf"),
    (problem("inf-tolerance", "solve", tolerance=float("inf")), "tolerance must be finite, got inf"),
    (problem("fractional-presic-arity", "solve",
             map={"presic": {"rule": "affine", "coeffs": [0.25, 0.25], "arity": 2.7, "offset": 1.0}}),
     "presic arity must be an integer, got 2.7"),
    (problem("bool-presic-arity", "solve",
             map={"presic": {"rule": "affine", "coeffs": [0.5], "arity": True, "offset": 1.0}}),
     "presic arity must be a number, got True"),
]


@pytest.mark.parametrize("entry", [entry for entry, _ in MALFORMED_VALUES], ids=lambda entry: entry["id"])
def test_malformed_values_exit_1(tmp_path, capsys, entry):
    config = write_config(tmp_path, [entry])
    assert run(config, str(tmp_path / "out")) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


#: (entry, the error after "problem '<id>': "): one case for each check of an entry after its id
ENTRY_ERRORS = MALFORMED_VALUES + [
    (problem("unknown-mode", "explode"), "unknown mode 'explode'"),
    (problem("list-mode", ["solve"]), "unknown mode ['solve']"),
    (problem("zero-tolerance", "solve", tolerance=0.0), "tolerance must be positive"),
    (problem("huge-k-max", "trace", k_max=10**400), "k_max is too large"),
    (problem("initial-list", "solve", initial=[0.0]), "initial must be an object"),
    (problem("string-prefix", "solve", initial={"prefix": "12", "tail": 0.0}), "initial prefix must be a list, got '12'"),
    (problem("no-k-max", "trace"), "mode 'trace' needs a positive k_max"),
    (problem("zero-n-max", "truncate", n_max=0, base=0.0), "mode 'truncate' needs a positive n_max"),
    (problem("no-base", "truncate", n_max=2), "mode 'truncate' needs a base point"),
    (problem("q0-outside", "certify", q0=1.5), "q0 must lie in (0, 1)"),
    (problem("two-kinds", "solve", map={"linear": {}, "sup_half": {}}), "map must be an object with exactly one kind"),
    (problem("list-params", "solve", map={"linear": [0.5]}), "map parameters must be an object"),
    (problem("unknown-kind", "solve", map={"quadratic": {}}), "unknown map kind 'quadratic'"),
    (problem("presic-rule", "solve", map={"presic": {"rule": "cubic", "coeffs": [0.5]}}),
     "unknown presic rule 'cubic' (supported: 'affine')"),
    (problem("presic-arity-mismatch", "solve", map={
        "presic": {"rule": "affine", "coeffs": [0.25, 0.25], "arity": 3, "offset": 1.0}}),
     "presic arity must match len(coeffs)"),
    # LinearSeqMap's own check, and the arity check that a presic map shares with FiniteArityMap
    (problem("linear-unit-ratio", "solve", map={
        "linear": {"head_coeffs": [0.5], "tail_coeff": 0.1, "tail_ratio": -1.0}}), "|tail_ratio| must be < 1"),
    (problem("presic-no-coeffs", "solve", map={"presic": {"rule": "affine", "coeffs": [], "offset": 1.0}}),
     "arity must be an integer >= 1, got 0"),
]

#: (config document, how stderr must start after "error: "); an error in an entry names its problem first
CONFIG_ERRORS = {
    "problems-not-a-list": ({"problems": {"a": problem("a", "solve")}}, "'problems' must be a list"),
    **{entry["id"]: ({"problems": [entry]}, f"problem {entry['id']!r}: {message}") for entry, message in ENTRY_ERRORS},
}


@pytest.mark.parametrize("document, named", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS)
def test_config_errors_exit_1_naming_the_problem(tmp_path, capsys, document, named):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    out = tmp_path / "out"
    assert run(str(config), str(out)) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {named}"), captured.err
    assert not out.exists()


#: (misspelled key, config document); each would otherwise run on a default
UNKNOWN_KEYS = [
    # a zero map, solved to x_star=1 where the intended fixed point is 2
    ("head_coef", {"problems": [problem("linear", "solve", map={"linear": {"head_coef": [0.5], "offset": 1.0}})]}),
    # x_star=0 where the intended fixed point is 2
    ("ofset", {"problems": [problem("presic", "solve",
                                    map={"presic": {"rule": "affine", "coeffs": [0.5], "ofset": 1.0}})]}),
    # a certify table without its p row
    ("q_0", {"problems": [problem("certify", "certify", q_0=0.5)]}),
    # a solve from the zero sequence
    ("prefx", {"problems": [problem("start", "solve", initial={"prefx": [2.0], "tail": 0.0})]}),
    ("problem", {"problems": [], "problem": []}),
    ("scale", {"problems": [problem("half", "compare", map={"sup_half": {"scale": 0.5}}, k_max=3)]}),
]


@pytest.mark.parametrize("key, document", UNKNOWN_KEYS, ids=[key for key, _ in UNKNOWN_KEYS])
def test_unknown_config_keys_exit_1(tmp_path, capsys, key, document):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(document))
    assert run(str(config), str(tmp_path / "out")) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    where = f"problem {document['problems'][0]['id']!r}: " if document["problems"] else ""
    assert captured.err.startswith(f"error: {where}unknown key {key!r} in "), captured.err


#: each mode field with a valid value; a mode accepts only its own fields in _MODES
MODE_FIELDS = {"k_max": 3, "n_max": 2, "base": 7.0, "q0": 0.5}
UNREAD_FIELDS = [(mode, field, value) for mode, (_, required, optional, _) in _MODES.items()
                 for field in MODE_FIELDS if field not in required + optional
                 for value in (MODE_FIELDS[field], None)]


@pytest.mark.parametrize("mode, field, value", UNREAD_FIELDS)
def test_fields_a_mode_does_not_read_exit_1(tmp_path, capsys, mode, field, value):
    _, required, optional, _ = _MODES[mode]
    entry = problem("s", mode, **{key: MODE_FIELDS[key] for key in required + optional}, **{field: value})
    out = tmp_path / "out"
    assert run(write_config(tmp_path, [entry]), str(out)) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: problem 's': unknown key {field!r} in the problem; allowed: ")
    assert not out.exists()


@pytest.mark.parametrize("entry", [
    problem("string-coeffs", "solve", map={"linear": {"head_coeffs": "123"}}),
    problem("string-coeff", "solve", map={"linear": {"head_coeffs": ["0.5"]}}),
    problem("string-offset", "solve", map={"linear": {"head_coeffs": [0.5], "offset": "1"}}),
    problem("string-tolerance", "solve", tolerance="1e-6"),
    problem("string-k-max", "trace", k_max="7"),
    problem("string-n-max", "truncate", n_max="3", base=0.0),
    problem("string-base", "truncate", n_max=3, base="0"),
    problem("string-q0", "certify", q0="0.5"),
    problem("string-prefix", "solve", initial={"prefix": "12", "tail": 0.0}),
    problem("string-tail", "solve", initial={"prefix": [], "tail": "0"}),
    problem("string-presic-coeffs", "solve", map={"presic": {"rule": "affine", "coeffs": "12", "offset": 1.0}}),
    problem("string-presic-arity", "solve",
            map={"presic": {"rule": "affine", "coeffs": [0.5], "arity": "1", "offset": 1.0}}),
], ids=lambda entry: entry["id"])
def test_numeric_strings_are_not_numbers(tmp_path, capsys, entry):
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"problems": [entry]}))
    assert run(write_config(tmp_path, [entry]), str(tmp_path / "out")) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


def test_integers_beyond_the_float_range_exit_1(tmp_path, capsys):
    huge = json.dumps({"problems": [problem("huge", "trace", tolerance=1.0, k_max=3)]})
    for text in (huge.replace('"tolerance": 1.0', '"tolerance": 1' + "0" * 400),
                 huge.replace('"k_max": 3', '"k_max": 1' + "0" * 400),
                 huge.replace('"k_max": 3', '"k_max": ' + "1" * 5000)):  # beyond int parsing's digit limit
        path = tmp_path / "huge.json"
        path.write_text(text)
        assert run(str(path), str(tmp_path / "out")) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("out", ["a-file", "a-file/sub", "taken"])
def test_unusable_output_exits_1_without_traceback(tmp_path, out):
    (tmp_path / "a-file").write_text("")
    (tmp_path / "taken" / "x.csv").mkdir(parents=True)  # the table's path is a directory
    config = write_config(tmp_path, [problem("x", "solve")])
    env = dict(os.environ, PYTHONPATH=str(Path(seqfix.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "seqfix.cli", "--config", config, "--out", str(tmp_path / out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: cannot write output: ")


def test_integral_counts_parse_as_ints():
    [entry] = parse_config(json.dumps({"problems": [problem("a", "trace", k_max=3.0)]}))
    assert entry.k_max == 3 and isinstance(entry.k_max, int)


def test_certify_survives_underflowing_weights(tmp_path):
    # sum |b| = 0.5, but q**k underflows across the 399 zero coefficients
    sparse = {"linear": {"head_coeffs": [0.5] + [0.0] * 399, "tail_coeff": 0.0,
                         "tail_ratio": 0.0, "offset": 1.0}}
    config = write_config(tmp_path, [problem("sparse", "certify", map=sparse, q0=0.1)])
    env = dict(os.environ, PYTHONPATH=str(Path(seqfix.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "seqfix.cli", "--config", config, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert "Traceback" not in done.stderr
    rows = (tmp_path / "out" / "sparse.csv").read_text().splitlines()
    assert rows[1].startswith("sup,0.5,,0.5,")
    assert rows[2].startswith("p,")


def test_certify_survives_overflowing_power_constant(tmp_path):
    # at q0 = 1e-300 the p = 2 constant exceeds the float range
    flat = {"linear": {"head_coeffs": [0.1] * 4, "tail_coeff": 0.0, "tail_ratio": 0.0, "offset": 1.0}}
    config = write_config(tmp_path, [problem("flat", "certify", map=flat, q0=1e-300)])
    env = dict(os.environ, PYTHONPATH=str(Path(seqfix.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "seqfix.cli", "--config", config, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout.startswith("flat certify OK")


def test_uncertifiable_solve_exits_2(tmp_path, capsys):
    half = {"sup_half": {}}
    config = write_config(tmp_path, [
        problem("solve-half-sup", "solve", map=half, initial={"prefix": [0.6], "tail": 0.0}),
        problem("truncate-half-sup", "truncate", map=half, n_max=3, base=0.0),
    ])
    assert run(config, str(tmp_path / "out")) == EXIT_UNCERTIFIED
    assert capsys.readouterr().out.splitlines() == [
        "solve-half-sup solve FAILED uncertified",
        "truncate-half-sup truncate FAILED uncertified",
    ]
    # a failed problem writes no table; an uncertified certify writes its header only
    # (test_certify_with_q0_on_maps_without_power_constants)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["config_echo.json"]


def test_bound_violation_exits_3(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise BoundViolationError("synthetic")

    monkeypatch.setattr("seqfix.cli.solve_fixed_point", explode)
    config = write_config(tmp_path, [problem("solve-recursion", "solve")])
    assert run(config, str(tmp_path / "out")) == EXIT_BOUND_VIOLATION
    assert "FAILED bound-violation" in capsys.readouterr().out


def synthetic_defect(*args, **kwargs):
    raise ZeroDivisionError("synthetic")


def test_any_other_exception_is_a_bug_that_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("seqfix.cli.secelean_iterates", synthetic_defect)
    config = write_config(tmp_path, [problem("a", "secelean", k_max=3), problem("b", "certify")])
    assert run(config, str(tmp_path / "out")) == EXIT_BOUND_VIOLATION
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "a secelean FAILED bug: ZeroDivisionError: synthetic"
    assert lines[1].startswith("b certify OK")  # the problems after it still run


def test_a_bug_exits_3_without_traceback(tmp_path):
    config = write_config(tmp_path, [problem("a", "solve")])
    script = ("import sys, seqfix.cli\n"
              "def defect(*args, **kwargs):\n"
              "    raise ZeroDivisionError('synthetic')\n"
              "seqfix.cli.solve_fixed_point = defect\n"
              "seqfix.cli.main(sys.argv[1:])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(seqfix.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script, "--config", config, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_BOUND_VIOLATION, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == "a solve FAILED bug: ZeroDivisionError: synthetic\n"


def test_keyboard_interrupt_is_not_caught(tmp_path, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("seqfix.cli.find_sup_certificate", interrupt)
    config = write_config(tmp_path, [problem("a", "certify")])
    with pytest.raises(KeyboardInterrupt):
        run(config, str(tmp_path / "out"))


def test_empty_problem_list(tmp_path, capsys):
    config = write_config(tmp_path, [])
    out = tmp_path / "out"
    assert run(config, str(out)) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert list(out.iterdir()) == []


def test_config_echo_round_trips(tmp_path, capsys):
    config = write_config(
        tmp_path,
        [problem("solve-recursion", "solve"), problem("trace-recursion", "trace", k_max=7)],
    )
    out = tmp_path / "out"
    assert run(config, str(out)) == EXIT_OK
    capsys.readouterr()
    original = parse_config((tmp_path / "config.json").read_text())
    echoed = parse_config((out / "config_echo.json").read_text())
    assert echoed == original
    assert parse_config(json.dumps(config_to_dict(original))) == original


def test_parse_config_validation():
    with pytest.raises(ConfigError):
        parse_config("[]")
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"problems": [problem("bad id!", "solve")]}))
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"problems": [problem("a", "trace")]}))  # k_max missing
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"problems": [problem("a", "solve"), problem("a", "solve")]}))
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"problems": [problem("a", "solve", tolerance=0.0)]}))
    entries = parse_config(json.dumps({"problems": [problem("a", "truncate", n_max=3, base=0.5)]}))
    assert entries[0].n_max == 3 and entries[0].base == 0.5


def test_problem_config_round_trip_dict():
    entry = problem("certify-recursion", "certify", q0=0.5)
    parsed = ProblemConfig.from_dict(entry)
    assert ProblemConfig.from_dict(parsed.to_dict()) == parsed


def _mutate_every_container(obj):
    """Append to every list and then clear every dict reachable from ``obj``."""
    for child in list(obj.values() if isinstance(obj, dict) else obj if isinstance(obj, (list, tuple)) else ()):
        _mutate_every_container(child)
    if isinstance(obj, list):
        obj.append(0.25)
    elif isinstance(obj, dict):
        obj.clear()


def test_problem_config_hands_out_no_mutable_state():
    text = json.dumps({"problems": [
        problem("linear", "certify", initial={"prefix": [0.5, 0.25], "tail": 1.0}, q0=0.5),
        problem("presic", "solve", map={"presic": {"rule": "affine", "coeffs": [0.25, 0.25], "offset": 1.0}}),
    ]})
    problems = parse_config(text)
    echo = config_to_dict(problems)
    _mutate_every_container(config_to_dict(problems))
    _mutate_every_container([p.to_dict() for p in problems])
    for p in problems:  # the fields themselves are read-only
        [(kind, params)] = p.map.items()
        for mapping in (p.map, params, p.initial):
            with pytest.raises(TypeError):
                mapping["offset"] = 3.0
    assert problems == parse_config(text)
    assert config_to_dict(problems) == echo
    assert problems[0].initial_seq() == BoundedSeq((0.5, 0.25), 1.0)


def test_deterministic_output(tmp_path, capsys):
    config = write_config(
        tmp_path,
        [problem("solve-recursion", "solve"), problem("certify-recursion", "certify", q0=0.5)],
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(config, str(out1), seed=42) == EXIT_OK
    assert run(config, str(out2), seed=42) == EXIT_OK
    capsys.readouterr()
    for name in ("solve-recursion.csv", "certify-recursion.csv", "config_echo.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_below_float_resolution_exits_2(tmp_path):
    # at 1e-15 and 1e-17 the residual falls within roundoff with no room left; at 5e-324 no step count can be planned
    env = dict(os.environ, PYTHONPATH=str(Path(seqfix.__file__).parents[1]))
    for i, tol in enumerate((1e-15, 1e-17, 5e-324)):
        config = write_config(tmp_path, [problem("tiny-tol", "solve", tolerance=tol)])
        done = subprocess.run(
            [sys.executable, "-m", "seqfix.cli", "--config", config, "--out", str(tmp_path / f"out{i}")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == EXIT_UNCERTIFIED, done.stdout + done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout.startswith(f"tiny-tol solve FAILED tolerance {tol:.3e} is below float resolution")


def test_roundoff_at_the_cap_of_a_negative_slope_exits_2(tmp_path, capsys):
    # the reference runs at tol/1000, where δ = 9.1e-13 of roundoff per evaluation leaves tol·(1 - c) = 1.44e-13 no room;
    # a plain chain reaches its cap (see test_roundoff_at_the_cap_of_a_plain_chain_is_below_resolution),
    # and the first Aitken point lands within that roundoff of the fixed point
    neg = {"linear": {"head_coeffs": [-0.856049225667278], "offset": 2383.633795947942}}
    config = write_config(tmp_path, [problem("neg-truncate", "truncate", map=neg, tolerance=1e-9, n_max=2, base=0.0)])
    assert run(config, str(tmp_path / "out")) == EXIT_UNCERTIFIED
    assert capsys.readouterr().out == ("neg-truncate truncate FAILED tolerance 1.000e-12 is below float resolution: "
                                       "the residual 0.000e+00 is within roundoff 9.095e-13\n")


def test_solve_over_the_step_budget_exits_2(tmp_path):
    slow = {"linear": {"head_coeffs": [], "tail_coeff": 1e-7, "tail_ratio": 0.999999, "offset": 1.0}}
    config = write_config(tmp_path, [problem("slow", "solve", map=slow)])
    env = dict(os.environ, PYTHONPATH=str(Path(seqfix.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "seqfix.cli", "--config", config, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_UNCERTIFIED, done.stdout + done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == "slow solve FAILED the a priori bound plans 30818188 steps, more than the step budget 1000000\n"


def test_truncate_over_the_step_budget_exits_2(tmp_path):
    # n_max 10**6 would make the arities sum to 5e11: the study is refused before it evaluates anything
    config = write_config(tmp_path, [problem("wide", "truncate", n_max=10**6, base=0.0)])
    env = dict(os.environ, PYTHONPATH=str(Path(seqfix.__file__).parents[1]), PYTHONWARNINGS="error")
    done = subprocess.run(
        [sys.executable, "-m", "seqfix.cli", "--config", config, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_UNCERTIFIED, done.stdout + done.stderr
    assert done.stderr == ""
    assert done.stdout == ("wide truncate FAILED n_max 1000000 makes the arities sum to 500000500000, "
                           "more than the step budget 1000000\n")
    assert not (tmp_path / "out" / "wide.csv").exists()


def test_trace_and_compare_over_the_step_budget_exit_2(tmp_path, capsys):
    # 1 + ... + 1414 = 1,000,405 lifted coordinates: both modes are refused before their first lift
    config = write_config(tmp_path, [problem("deep", "trace", k_max=1414),
                                     problem("deep-compare", "compare", map={"sup_half": {}}, k_max=1414)])
    assert run(config, str(tmp_path / "out")) == EXIT_UNCERTIFIED
    over = "k_max 1414 makes the lifted sequence lengths sum to 1000405, more than the step budget 1000000\n"
    assert capsys.readouterr().out == f"deep trace FAILED {over}deep-compare compare FAILED {over}"
    assert not (tmp_path / "out" / "deep.csv").exists()
    assert not (tmp_path / "out" / "deep-compare.csv").exists()
    # 1413 fits the budget
    config = write_config(tmp_path, [problem("half", "compare", map={"sup_half": {}},
                                             initial={"prefix": [0.6, 0.2], "tail": 0.9}, k_max=1413)])
    assert run(config, str(tmp_path / "out")) == EXIT_OK
    assert len((tmp_path / "out" / "half.csv").read_text().splitlines()) == 1 + 1414  # header, then k = 0 .. 1413


def test_secelean_over_the_step_budget_exits_2(tmp_path, capsys):
    # 10**6 + 1 diagonal-map steps would hold as many rows: the run is refused before its first step
    config = write_config(tmp_path, [problem("long", "secelean", k_max=10**6 + 1)])
    assert run(config, str(tmp_path / "out")) == EXIT_UNCERTIFIED
    assert capsys.readouterr().out == "long secelean FAILED k_max 1000001 is more than the step budget 1000000\n"
    assert not (tmp_path / "out" / "long.csv").exists()


def test_truncate_with_an_overflowing_reference_exits_2(tmp_path, capsys):
    # the diagonal 0.5·t + 1e308 has its fixed point at 2e308, past the largest float
    huge = {"linear": {"head_coeffs": [0.5], "offset": 1e308}}
    config = write_config(tmp_path, [problem("huge", "truncate", map=huge, n_max=5, base=0.0)])
    assert run(config, str(tmp_path / "out")) == EXIT_UNCERTIFIED
    assert capsys.readouterr().out == "huge truncate FAILED map value must be finite, got inf\n"
    assert not (tmp_path / "out" / "huge.csv").exists()


def test_certify_rows_equal_one_empirical_bound_per_family(tmp_path, capsys):
    # certify scores one draw of pairs for both rows; each must equal the public bound's own draw
    signed = {"linear": {"head_coeffs": [0.25, -0.125, 0.0, 0.0625], "tail_coeff": -0.05, "tail_ratio": -0.4,
                         "offset": 2.0}}
    presic = {"presic": {"rule": "affine", "coeffs": [0.25, 0.25], "offset": 1.0}}
    problems = [
        problem("recur", "certify", q0=0.5),
        problem("signed", "certify", map=signed, q0=0.8),
        problem("presic", "certify", map=presic, q0=0.5),
        problem("half", "certify", map={"sup_half": {}}, initial={"prefix": [], "tail": 0.5}, q0=0.5),
    ]
    config = write_config(tmp_path, problems)
    for seed in (0, 1, 7, 12345):
        out = tmp_path / f"out{seed}"
        assert run(config, str(out), seed=seed) == EXIT_OK
        for p in parse_config(Path(config).read_text()):
            f = p.build_map()
            cert = find_sup_certificate(f)
            pc = find_p_certificate(f, p.q0)
            families = [] if cert is None else [(cert.q, None)] + ([] if pc is None else [(pc.q, pc.p)])
            expected = [_fmt(empirical_lip_lower_bound(f, q, fp, seed=seed)) for q, fp in families]
            rows = (out / f"{p.id}.csv").read_text().splitlines()[1:]
            assert [row.split(",")[4] for row in rows] == expected, (p.id, seed)
    assert len((tmp_path / "out0" / "recur.csv").read_text().splitlines()) == 3  # a sup and a p row
    capsys.readouterr()


def test_certify_rows_are_never_below_their_empirical_bound(tmp_path, capsys):
    # at q0 = 0.25 the tied map's p = 2 series terms of b_0 and of the tail are equal; its lip must count both.
    # A presic map is the linear map of its coeffs, so it has power constants and writes a p row too
    tied = {"linear": {"head_coeffs": [0.5], "tail_coeff": 0.25, "tail_ratio": 0.1, "offset": 1.0}}
    presic = {"presic": {"rule": "affine", "coeffs": [0.25, 0.25], "offset": 1.0}}
    config = write_config(tmp_path, [problem("recur", "certify", q0=0.5), problem("tied", "certify", map=tied, q0=0.25),
                                     problem("presic", "certify", map=presic, q0=0.5)])
    assert run(config, str(tmp_path / "out")) == EXIT_OK
    for pid in ("recur", "tied", "presic"):
        rows = [row.split(",") for row in (tmp_path / "out" / f"{pid}.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["sup", "p"]
        for family, _, _, lip, lower in rows:
            assert float(lower) <= float(lip) * (1 + 1e-12), (pid, family, lip, lower)
    capsys.readouterr()


class CountingLinearMap(LinearSeqMap):
    """A linear map that records the pairs of each differences call."""

    calls: list = []

    def differences(self, pairs):
        CountingLinearMap.calls.append(list(pairs))
        return super().differences(pairs)


def test_certify_takes_one_difference_per_drawn_pair(tmp_path, capsys, monkeypatch):
    keys, normalize, _ = _MAP_KINDS["linear"]
    monkeypatch.setitem(_MAP_KINDS, "linear", (keys, normalize, lambda params: CountingLinearMap(
        tuple(params["head_coeffs"]), params["tail_coeff"], params["tail_ratio"], params["offset"])))
    monkeypatch.setattr(CountingLinearMap, "calls", [])
    f = CountingLinearMap((1.0 / 3.0,), 1.0 / 6.0, 0.5, 1.0)
    cert, pc = find_sup_certificate(f), find_p_certificate(f, 0.5)
    witnesses = list(f.witnesses(cert.q, None)) + list(f.witnesses(pc.q, pc.p))
    assert len(witnesses) == 1 + 1  # one sup witness, and the one unit vector that sets the p = 1 constant
    assert run(write_config(tmp_path, [problem("recur", "certify", q0=0.5)]), str(tmp_path / "out")) == EXIT_OK
    (pairs,) = CountingLinearMap.calls  # one call per certify, drawn from the default seed 0
    rng = random.Random(0)
    drawn = [(_random_seq(rng, -1.0, 1.0), _random_seq(rng, -1.0, 1.0)) for _ in range(200)]
    zero = BoundedSeq.constant(0.0)
    assert pairs == drawn + [(w, zero) for w in witnesses]  # each drawn pair and each witness once
    CountingLinearMap.calls.clear()
    empirical_lip_lower_bound(f, pc.q, pc.p, trials=50, seed=3)
    (pairs,) = CountingLinearMap.calls
    assert len(pairs) == 50 + 1
    capsys.readouterr()


def test_certify_with_q0_on_maps_without_power_constants(tmp_path, capsys):
    config = write_config(tmp_path, [
        problem("half", "certify", map={"sup_half": {}}, initial={"prefix": [], "tail": 0.5}, q0=0.5),
    ])
    assert run(config, str(tmp_path / "out")) == EXIT_OK
    assert (tmp_path / "out" / "half.csv").read_text() == "family,q,p,lip,empirical_lower_bound\n"
    assert capsys.readouterr().out == "half certify UNCERTIFIED\n"


GOLDEN = Path(__file__).parent / "data" / "cli_batch_seed0"


def test_cli_batch_matches_golden_output_byte_for_byte(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(str(GOLDEN / "config.json"), str(out), 0) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "stdout.txt").read_text()
    expected = sorted(p.name for p in (GOLDEN / "expected").iterdir())
    assert sorted(p.name for p in out.iterdir()) == expected
    for name in expected:
        assert (out / name).read_bytes() == (GOLDEN / "expected" / name).read_bytes(), name


def test_golden_truncation_study_is_within_its_tolerances_of_the_closed_forms():
    # the golden file is regenerated whenever the study's output changes; this holds it to the closed forms
    (spec,) = [p for p in json.loads((GOLDEN / "config.json").read_text())["problems"] if p["id"] == "readme-truncate"]
    f = LinearSeqMap(tuple(spec["map"]["linear"]["head_coeffs"]), spec["map"]["linear"]["tail_coeff"],
                     spec["map"]["linear"]["tail_ratio"], spec["map"]["linear"]["offset"])
    tol, base = spec["tolerance"], spec["base"]
    assert f.fixed_point() == pytest.approx(3.0, abs=1e-15)
    lines = (GOLDEN / "expected" / "readme-truncate.csv").read_text().splitlines()
    assert lines[0] == "n,x_n,error,bound" and len(lines) == 1 + spec["n_max"]
    for n, line in enumerate(lines[1:], 1):
        row_n, x_n, error, bound = line.split(",")
        x_n, error, bound = float(x_n), float(error), float(bound)
        assert int(row_n) == n
        closed = (f.offset + base * f.tail_sum_from(n)) / (1.0 - sum(f.coeff_at(i) for i in range(n)))
        assert abs(x_n - closed) <= tol / 10.0
        # every truncated fixed point lies below 3 here, so the reference is x_n + error
        assert x_n < 3.0 and abs(x_n + error - 3.0) <= tol / 1000.0
        assert error <= bound


def test_readme_and_golden_config_cover_every_mode():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for mode, (header, required, optional, _) in _MODES.items():
        row = re.search(rf"^\| `{mode}` .*$", readme, re.M)
        assert row is not None, mode
        assert f"`{header}`" in row.group(0), mode
        fields = row.group(0).split("|")[2]
        assert re.findall(r"`(\w+)`", fields) == list(required + optional), mode
        assert re.findall(r"optional `(\w+)`", fields) == list(optional), mode
    golden = json.loads((GOLDEN / "config.json").read_text())
    assert {p["mode"] for p in golden["problems"]} == set(_MODES)


def test_presic_hint_that_rounds_to_one_fails_only_the_solve(tmp_path, capsys):
    def presic(coeffs):
        return {"presic": {"rule": "affine", "coeffs": coeffs, "offset": 0.0}}

    config = write_config(tmp_path, [
        # sum |c| = 1 - 2**-53: the sup constant 0.5 + 0.4999999999999999 / q rounds to 1.0 at every q < 1
        problem("edge-solve", "solve", map=presic([0.5, 0.4999999999999999])),
        # sum |c| = 1 - 2**-52 is certified at q = 1 - 2**-53; each truncation plans with that certificate's lip
        problem("edge-truncate", "truncate", map=presic([0.5, 0.4999999999999998]), n_max=3, base=0.0),
    ])
    assert run(config, str(tmp_path / "out")) == EXIT_UNCERTIFIED
    assert capsys.readouterr().out.splitlines() == [
        "edge-solve solve FAILED uncertified",
        "edge-truncate truncate x_star=0 n_max=3 error=0",
    ]


def test_a_presic_map_is_the_linear_map_of_its_coeffs_and_sums_left_to_right():
    g = _MAP_KINDS["presic"][2]({"rule": "affine", "arity": 3, "coeffs": (1e16, 1.0, 1.0), "offset": 0.0})
    assert g == LinearSeqMap((1e16, 1.0, 1.0))
    # each 1e16 + 1.0 is a tie that rounds back to 1e16, where compensated summation gives 1e16 + 2
    assert g.lip_sup(1.0) == g.eval(BoundedSeq((1.0, 1.0, 1.0))) == 1e16


@st.composite
def affine_presic_specs(draw):
    """Arity 1-5 signed coefficients scaled to a sum of |c| in [0.3, 0.95], and an offset in [-3, 3]."""
    raw = draw(st.lists(st.floats(min_value=-1.0, max_value=1.0).filter(lambda c: abs(c) >= 1e-3),
                        min_size=1, max_size=5))
    scale = draw(st.floats(min_value=0.3, max_value=0.95)) / sum(map(abs, raw))
    return {"rule": "affine", "coeffs": [c * scale for c in raw],
            "offset": draw(st.floats(min_value=-3.0, max_value=3.0))}


@settings(max_examples=60, deadline=None)
@given(affine_presic_specs())
def test_random_affine_presic_specs_solve_and_certify_no_worse_than_the_max_metric_hint(spec):
    tol = 1e-6
    problems = [problem("solve", "solve", map={"presic": spec}, tolerance=tol),
                problem("certify", "certify", map={"presic": spec}, q0=0.5)]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({"problems": problems}))
        assert [p.build_map() for p in parse_config(config.read_text())] == [LinearSeqMap(tuple(spec["coeffs"]),
                                                                                         offset=spec["offset"])] * 2
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(str(config), str(Path(tmp) / "out")) == EXIT_OK
        x_star = float((Path(tmp) / "out" / "solve.csv").read_text().splitlines()[-1].split(",")[1])
        rows = [row.split(",") for row in (Path(tmp) / "out" / "certify.csv").read_text().splitlines()[1:]]
    coeffs, offset = spec["coeffs"], spec["offset"]
    assert abs(x_star - offset / (1.0 - sum(coeffs))) <= tol
    # the reference: the same rule certified through one max-metric constant, sum |c| / q**(m - 1)
    m = len(coeffs)
    hinted = find_sup_certificate(FiniteArityMap(m, lambda *a: sum(c * x for c, x in zip(coeffs, a)) + offset,
                                                 sum(map(abs, coeffs))))
    assert [row[0] for row in rows] == ["sup", "p"]
    assert float(rows[0][1]) <= hinted.q + 2.0**-53
    for family, _, _, lip, lower in rows:
        assert float(lower) <= float(lip) * (1 + 1e-12), (family, lip, lower)


def test_start_too_far_from_its_image_exits_2(tmp_path):
    far = {"linear": {"head_coeffs": [-0.5], "tail_coeff": 0.0, "tail_ratio": 0.0, "offset": 0.0}}
    config = write_config(tmp_path, [problem("far", "solve", map=far, initial={"prefix": [1.7e308], "tail": 0.0})])
    env = dict(os.environ, PYTHONPATH=str(Path(seqfix.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "seqfix.cli", "--config", config, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_UNCERTIFIED, done.stdout + done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout.startswith("far solve FAILED first-step displacement inf gives a non-finite a priori bound")


# Config fuzzing: problem entries assembled from valid and malformed parts. Sizes stay
# bounded (k_max <= 200, n_max <= 8, at most 8 coefficients), so that every run is short.
JUNK = [None, True, False, "x", "0.5", "7", "1e-6", "123", [], {}, [1.0], {"a": 1}, math.nan, math.inf, -math.inf,
        1e308, -1e308]


def mostly(valid, malformed=st.sampled_from(JUNK)):
    """``valid`` nine draws in ten, else ``malformed``, so that most entries reach a run."""
    # hypothesis favours the first choices, so the malformed one is last
    return st.sampled_from([True] * 9 + [False]).flatmap(lambda ok: valid if ok else malformed)


#: misspellings of documented keys, each of which the config parser must reject
MISSPELLED = ["head_coef", "ofset", "q_0", "prefx", "tolerence", "kmax"]


def optional_fields(**strategies):
    """A dict of the given keys, missing one of them one draw in ten, with a misspelled key one in ten."""
    return st.builds(lambda d, drop, extra: {**{k: v for k, v in d.items() if k != drop}, **extra},
                     st.fixed_dictionaries(strategies), mostly(st.none(), st.sampled_from(sorted(strategies))),
                     mostly(st.just({}), st.sampled_from([{key: 0.5} for key in MISSPELLED])))


# A certifiable valid map has sum |b_n| <= 0.9: at most 7 head coefficients and a tail coefficient,
# each of at most 0.1, and |tail_ratio| <= 0.5; or a tail ratio of size 0.999999 with a tail
# coefficient such as 1e-7. 1.0 and 1e308 make a map uncertified. A ratio of 0.999999 puts the
# certificate's q above it, so a solve plans millions of steps, which the step budget refuses at
# once. Ratios strictly between 0.5 and 0.999999 stay out: their plans can stay within the budget,
# and the lifted step costs O(k), so such a solve takes minutes.
coeffs = st.one_of(st.floats(min_value=-0.1, max_value=0.1), st.sampled_from([0.0, -0.0, 1e-300, 1e-7, 1.0, 1e308]))
coeff_lists = mostly(st.lists(mostly(coeffs), max_size=7))
ratios = st.one_of(st.floats(min_value=-0.5, max_value=0.5), st.sampled_from([-0.5, 1.0, 0.999999, -0.999999]))
points = st.one_of(st.floats(min_value=-3.0, max_value=3.0), st.sampled_from([0.0, 1.0, 1e-300, 1.7e308, -1e308]))
linear_specs = optional_fields(head_coeffs=coeff_lists, tail_coeff=mostly(coeffs), tail_ratio=mostly(ratios),
                               offset=mostly(points))
presic_specs = optional_fields(rule=mostly(st.just("affine"), st.sampled_from(["quadratic", None, 1])),
                               coeffs=coeff_lists, offset=mostly(points))
map_specs = mostly(
    st.one_of(st.builds(lambda p: {"linear": p}, linear_specs), st.builds(lambda p: {"presic": p}, presic_specs),
              st.just({"sup_half": {}})),
    st.sampled_from([{"sup_half": {"x": 1}}, {"quadratic": {}}, {"linear": 1}, {"linear": {}, "sup_half": {}},
                     {}, [], "linear", None]),
)
counts = st.integers(min_value=1, max_value=200)
field_values = {
    "k_max": mostly(counts, st.sampled_from(JUNK + [0, -1, 2.5, 3.0])),
    "n_max": mostly(st.integers(min_value=1, max_value=8), st.sampled_from(JUNK + [0, -1, 2.5, 3.0])),
    "base": mostly(points),
    "q0": mostly(st.floats(min_value=1e-300, max_value=0.99)),
}


def mode_entries(mode):
    """An entry with the fields ``mode`` reads; one draw in ten adds a field that it does not read."""
    own = _MODES[mode][1] + _MODES[mode][2] if mode in _MODES else ()
    foreign = st.sampled_from([key for key in field_values if key not in own]).flatmap(
        lambda key: field_values[key].map(lambda value: {key: value}))
    return st.builds(lambda entry, extra: {**entry, **extra}, optional_fields(
        id=mostly(st.just("p"), st.sampled_from(["bad id", "", 3, None])),
        map=map_specs,
        initial=mostly(optional_fields(prefix=mostly(st.lists(mostly(points), max_size=4)), tail=mostly(points))),
        tolerance=mostly(st.sampled_from([1e-9, 1e-6, 1e-3, 0.5, 1e308]), st.sampled_from(JUNK + [0.0, -1e-6])),
        mode=st.just(mode),
        **{key: field_values[key] for key in own},
    ), mostly(st.just({}), foreign))


entries = mostly(mostly(st.sampled_from(sorted(_MODES)), st.sampled_from(["bogus", 1, None])).flatmap(mode_entries))


@settings(max_examples=300, deadline=None)
@given(st.lists(entries, max_size=2))
@example([problem("p", "solve", map={"linear": {"head_coeffs": [], "tail_coeff": 1e-7, "tail_ratio": 0.999999,
                                                "offset": 1.0}}),
          problem("p", "truncate", map={"linear": {"head_coeffs": [0.1], "tail_coeff": 1e-7,
                                                   "tail_ratio": -0.999999, "offset": 1.0}}, n_max=8, base=3.0)])
def test_cli_fuzzed_configs_exit_0_to_3_without_raising(problems):
    # a valid id is made unique, so that duplicate ids do not hide every later check
    problems = [dict(e, id=f"p{i}") if isinstance(e, dict) and e.get("id") == "p" else e
                for i, e in enumerate(problems)]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({"problems": problems}))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            status = run(str(config), str(Path(tmp) / "out"))
    assert status in (EXIT_OK, EXIT_CONFIG, EXIT_UNCERTIFIED, EXIT_BOUND_VIOLATION)
    assert "FAILED bug:" not in stdout.getvalue()  # run() reports a defect instead of raising it
