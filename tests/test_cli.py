"""CLI contract: envelopes, exit codes, artifacts, and determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csv_points
from conftest import src_env
from tropstat import cli, treeio
from tropstat.cli import main
from tropstat import (
    DissimilarityMap,
    SimConfig,
    cophenetic,
    make_two_class_sample,
    simulate_equidistant,
    topology_id,
    ultrametric_to_tree,
)


@pytest.fixture(scope="module")
def schema():
    text = (
        resources.files("tropstat") / "schemas" / "envelope.schema.json"
    ).read_text()
    return json.loads(text)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def envelope_of(out: str) -> dict:
    lines = [ln for ln in out.strip().splitlines() if ln.startswith("{")]
    assert lines, f"no envelope in output: {out!r}"
    return json.loads(lines[-1])


def write_u4_csv(path, seed=3, count=6):
    trees = simulate_equidistant(SimConfig(4, 1.0, seed, count))
    with open(path, "w") as fh:
        for t in trees:
            fh.write(",".join(f"{v:.12g}" for v in cophenetic(t).values) + "\n")


class TestEnvelope:
    def test_metric_envelope_validates(self, capsys, schema):
        code, out = run(capsys, "metric", "0,0,0", "0,3,1")
        assert code == 0
        env = envelope_of(out)
        jsonschema.validate(env, schema)
        assert env["result"]["distance"] == 3.0

    def test_error_envelope_validates(self, capsys, schema):
        code, out = run(capsys, "metric", "0,0,0", "0,3")
        assert code == 3
        env = envelope_of(out)
        jsonschema.validate(env, schema)
        assert env["status"] == "error"

    def test_floats_use_12_significant_digits(self, capsys):
        code, out = run(capsys, "metric", "0,0,0.123456789012345", "0,0,0")
        env = envelope_of(out)
        assert env["result"]["distance"] == 0.123456789012


class TestExitCodes:
    def test_parse_error_is_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,notanumber\n")
        code, _ = run(capsys, "fw", str(bad))
        assert code == 2

    def test_ragged_csv_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "ragged.csv"
        bad.write_text("0,0,0\n0,0\n")
        code, out = run(capsys, "fw", str(bad))
        assert code == 2
        assert ":2:" in envelope_of(out)["result"]["message"]

    def test_newick_error_names_the_physical_line(self, capsys, tmp_path):
        nw = tmp_path / "nw.txt"
        nw.write_text("\n((a:1,b:1):1,c:2);\n((a:1,b:1):1,c:2;\n")
        code, out = run(capsys, "tree", "newick2ultra", str(nw))
        assert code == 2
        assert f"{nw}:3:" in envelope_of(out)["result"]["message"]

    @pytest.mark.parametrize("tree, message", [
        ("a;", "need at least 2 leaves"),
        ("((a:1e308,b:1e308):1e308,c:1e308);", "dissimilarities must be finite"),
    ])
    def test_tree_without_a_map_names_the_physical_line(self, capsys, tmp_path, tree, message):
        nw = tmp_path / "nw.txt"
        nw.write_text(f"\n((a:1,b:1):1,c:2);\n{tree}\n")
        code, out = run(capsys, "tree", "newick2ultra", str(nw))
        assert code == 2
        assert envelope_of(out)["result"]["message"] == f"{nw}:3: {message}"

    def test_dimension_error_is_3(self, capsys):
        code, _ = run(capsys, "metric", "0,1", "0,1,2")
        assert code == 3

    def test_bad_parameter_is_5(self, capsys, tmp_path):
        pts = tmp_path / "p.csv"
        write_u4_csv(pts)
        code, _ = run(capsys, "pca", str(pts), "-s", "99")
        assert code == 5

    def test_not_separable_is_6(self, capsys, tmp_path):
        dup = tmp_path / "dup.csv"
        dup.write_text("0,1,2,0\n0,1,2,1\n")
        code, _ = run(capsys, "svm", "train", str(dup), "--mode", "hard")
        assert code == 6

    def test_not_ultrametric_is_7(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2,3\n")
        code, out = run(capsys, "tree", "ultra2newick", str(bad))
        assert code == 7
        assert envelope_of(out)["result"]["message"] == (
            "row 1 fails the three-point condition"
        )

    def test_non_finite_csv_cell_is_2(self, capsys, tmp_path):
        data = tmp_path / "s.csv"
        data.write_text("0,1,2,0\n\n0,nan,1.5,0\n0,-1,-2,1\n0,-2,-1.5,1\n")
        code, out = run(capsys, "svm", "train", str(data))
        assert code == 2
        assert envelope_of(out)["result"]["message"] == f"{data}:3: non-finite value"

    @pytest.mark.parametrize("vector", ["0,nan,1", "0,inf,1", "0,1,-inf"])
    def test_non_finite_inline_vector_is_2(self, capsys, vector):
        code, out = run(capsys, "metric", vector, "0,1,2")
        assert code == 2
        assert "non-finite value" in envelope_of(out)["result"]["message"]

    @pytest.mark.parametrize("tol", ["-1", "-1e-12", "nan", "inf"])
    def test_bad_tol_is_5(self, capsys, tol):
        code, out = run(capsys, f"--tol={tol}", "metric", "0,1,2", "0,1,3")
        assert code == 5
        assert "--tol" in envelope_of(out)["result"]["message"]

    @pytest.mark.parametrize("argv, command", [
        (["metric", "-1,0,1", "0,1,2"], "metric"),
        (["svm", "train", "x.csv", "--C", "abc"], "svm"),
        (["metric", "0,1", "0,1", "extra"], "metric"),
        (["nosuch"], "tropstat"),
        ([], "tropstat"),
    ])
    def test_usage_error_is_2(self, capsys, schema, argv, command):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        env = envelope_of(captured.out)
        jsonschema.validate(env, schema)
        assert env["command"] == command
        assert env["status"] == "error"

    def test_deep_tree_is_2(self, capsys, tmp_path, schema):
        # a caterpillar on 1100 leaves nests 1099 clades, past the parser's
        # 1000; the 1001st "(" is at offset 1000
        text = "t1"
        for k in range(2, 1101):
            text = f"({text}:1,t{k}:{k - 1})"
        deep = tmp_path / "deep.nwk"
        deep.write_text(text + ";\n")
        code = main(["tree", "newick2ultra", str(deep)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert len(captured.out.splitlines()) == 1
        env = envelope_of(captured.out)
        jsonschema.validate(env, schema)
        assert env["command"] == "tree"
        assert env["result"]["message"] == (
            f"{deep}:1: tree nests deeper than 1000 levels (offset 1000)"
        )

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 2.98 GiB for an array"),
         "Unable to allocate 2.98 GiB for an array"),
        (MemoryError(), "out of memory"),
    ])
    def test_out_of_memory_is_4(self, capsys, tmp_path, schema, monkeypatch, error, message):
        def fermat_weber(points):
            raise error

        monkeypatch.setattr(cli, "fermat_weber", fermat_weber)
        pts = tmp_path / "p.csv"
        write_u4_csv(pts)
        code = main(["fw", str(pts)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err == ""
        assert len(captured.out.splitlines()) == 1
        env = envelope_of(captured.out)
        jsonschema.validate(env, schema)
        assert env["status"] == "error"
        assert env["result"]["message"] == message

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["metric", "--help"])
        assert exc.value.code == 0
        assert "usage: tropstat metric" in capsys.readouterr().out

    def test_zero_tol_accepted(self, capsys):
        code, _ = run(capsys, "--tol", "0", "metric", "0,1,2", "0,1,3")
        assert code == 0

    @pytest.mark.parametrize(
        "C, code, text",
        [("0", 5, "C must be positive"), ("-1", 5, "C must be positive"),
         ("0.01", 4, "unbounded at C = 0.01"), ("inf", 5, "positive and finite")],
    )
    def test_soft_svm_bad_C(self, capsys, tmp_path, C, code, text):
        data = tmp_path / "s.csv"
        data.write_text("0,1,2,0\n0,2,1.5,0\n0,-1,-2,1\n0,-2,-1.5,1\n")
        got, out = run(capsys, "svm", "train", str(data), "--mode", "soft", f"--C={C}")
        assert got == code
        assert text in envelope_of(out)["result"]["message"]


class TestLocationCommands:
    def test_fw_closure_check(self, capsys, tmp_path, schema):
        pts = tmp_path / "u4.csv"
        write_u4_csv(pts)
        code, out = run(capsys, "fw", str(pts), "--check-ultrametric", "4")
        assert code == 0
        env = envelope_of(out)
        jsonschema.validate(env, schema)
        assert env["diagnostics"]["closure"] is True

    def test_frechet_single_row(self, capsys, tmp_path):
        pts = tmp_path / "one.csv"
        pts.write_text("0,2,1\n")
        code, out = run(capsys, "frechet", str(pts))
        env = envelope_of(out)
        assert env["result"]["objective"] == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.filterwarnings("error")
    def test_frechet_overflow_is_4_and_quiet(self, capsys, tmp_path):
        # a squared distance of about 4e400 overflows to inf; in the second
        # file the coordinate differences themselves overflow
        pts = tmp_path / "big.csv"
        for text, message in [("0,1e200,3\n0,-1e200,2\n1,2,3\n", "non-finite"),
                              ("0,1e308,-1e308\n1,-1e308,1e308\n0,0,0\n", "not finite")]:
            pts.write_text(text)
            code = main(["frechet", str(pts)])
            captured = capsys.readouterr()
            assert code == 4
            assert captured.err == ""
            assert message in envelope_of(captured.out)["result"]["message"]

    def test_header_flag(self, capsys, tmp_path):
        pts = tmp_path / "h.csv"
        pts.write_text("x,y,z\n0,0,0\n0,3,1\n")
        code, out = run(capsys, "--header", "fw", str(pts))
        assert code == 0
        assert envelope_of(out)["result"]["objective"] == pytest.approx(3.0)


SPACES = [" ", "\t", "\x0b", "\x0c", "\xa0", "\u2028"]  # float() strips them
FLOAT_ONLY = ["1_000", "2_5.0_1", "\uff11\uff12", "\u0663.\u0665"]  # numpy refuses them
NON_FINITE = ["nan", "-NaN", "inf", "+Infinity", "-INF", "1e400"]
BAD_CELLS = ["0x10", "1e", "x", "", "1 2", "-"]
FAULTS = ["non-finite", "float-only", "separator", "dirty"]


@st.composite
def csv_cells(draw, faults):
    """One cell: a float's repr or a long digit string, sometimes padded
    with whitespace or quoted.  Each fault in faults adds its kind of cell:
    nan and inf spellings, spellings only float() reads, the separators
    \\x1c and \\x1f that only numpy strips, or bad spellings and stray and
    doubled quotes."""
    nonfinite, dirty = "non-finite" in faults, "dirty" in faults
    odd = NON_FINITE * nonfinite + FLOAT_ONLY * ("float-only" in faults) + BAD_CELLS * dirty
    kind = draw(st.sampled_from(["repr", "repr", "digits"] + ["odd"] * bool(odd)))
    if kind == "repr":
        cell = repr(draw(st.floats(allow_nan=nonfinite, allow_infinity=nonfinite)))
    elif kind == "digits":
        cell = draw(st.sampled_from(["", "-", "+"])) + draw(st.text("0123456789", min_size=1, max_size=200))
        if draw(st.booleans()):
            cell += "." + draw(st.text("0123456789", max_size=400))
        if draw(st.booleans()):
            cell += "e" + str(draw(st.integers(-400, 400 if nonfinite else 100)))
    else:
        cell = draw(st.sampled_from(odd))
    if draw(st.integers(0, 3)) == 0:
        chars = st.sampled_from(SPACES * 2 + ["\x1c", "\x1f"] * ("separator" in faults))
        pad = st.lists(chars, max_size=2).map("".join)
        cell = draw(pad) + cell + draw(pad)
    quoting = draw(st.sampled_from(["none"] * 5 + ["quoted"] + ["doubled", "stray"] * dirty))
    if quoting == "quoted":
        cell = '"' + cell + '"'
    elif quoting == "doubled":
        cell = '"' + cell + '"""'
    elif quoting == "stray":
        k = draw(st.integers(0, len(cell)))
        cell = cell[:k] + '"' + cell[k:]
    return cell


@st.composite
def csv_files(draw):
    """(file bytes, header flag): up to 6 rows of up to 5 cells between
    blank lines, each line ended by LF, CRLF or a bare CR; with --header,
    line 1 is a header, a blank line or a quoted header cell that spans
    lines.  A file has any set of FAULTS; a dirty one also has ragged rows,
    trailing commas, whitespace-only lines and bytes that are not UTF-8."""
    faults = draw(st.sets(st.sampled_from(FAULTS)))
    dirty = "dirty" in faults
    ncol = draw(st.integers(1, 5))
    widths = st.sampled_from([ncol] * 6 + [ncol - 1, ncol + 1] if dirty else [ncol])
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        width = draw(widths)
        line = ",".join(draw(st.lists(csv_cells(faults), min_size=width, max_size=width)))
        lines.append(line + (draw(st.sampled_from([""] * 6 + [","])) if dirty else ""))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", '""'] if dirty else [""])))
    header = draw(st.booleans())
    if header:
        lines.insert(0, draw(st.sampled_from(["a,b,c", "", '"x\ny",z', '"open', "1,2"])))
    elif draw(st.integers(0, 4)) == 0:
        lines.insert(0, draw(st.sampled_from(["", "a,b,c"] if dirty else [""])))
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode()
    if dirty and draw(st.integers(0, 5)) == 0:
        k = draw(st.integers(0, len(data)))
        data = data[:k] + b"\xff" + data[k:]
    return data, header


def read_outcome(read, path, header):
    """The matrix's dtype, shape and bytes, or the CliError's message and code."""
    try:
        X = read(path, header)
    except cli.CliError as exc:
        return "error", str(exc), exc.code
    return "rows", X.dtype.str, X.shape, X.tobytes()


class TestReadPoints:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, header, message", [
        ("0,0,0\n0,x,0\n0,0\n", False, "{path}:2: could not convert string to float: 'x'"),
        ("0,0,0\n0,0\n0,x,0\n", False, "{path}:2: ragged row (2 cells, expected 3)"),
        ("a,b,c\n\n0,0,0\n0,0,0,0\n", True, "{path}:4: ragged row (4 cells, expected 3)"),
        ("0,,1\n", False, "{path}:1: could not convert string to float: ''"),
        ("a,b,c\n0,1,2\n", False, "{path}:1: could not convert string to float: 'a'"),
        ("0,0,0\n\n0,inf,0\n0,nan,0\n", False, "{path}:3: non-finite value"),
        ("\n\n", False, "{path}: no data rows"),
        ("a,b\n", True, "{path}: no data rows"),
        ("", False, "{path}: no data rows"),
        ('"x\n1,2\n3,"4"\n', True, "{path}: no data rows"),  # one quoted header cell
        ("1\x1c,2\n", False, "{path}:1: could not convert string to float: '1\\x1c'"),
        ("0,1,2\n0,inf,1\n0,x,1\n", False, "{path}:3: could not convert string to float: 'x'"),
        pytest.param("0," + "1" * 140000 + ",2\n", False,
                     "{path}:1: field larger than field limit (131072)", id="over-field-limit"),
    ])
    def test_error_messages(self, tmp_path, text, header, message):
        path = tmp_path / "p.csv"
        path.write_text(text)
        with pytest.raises(cli.CliError) as err:
            cli.read_points(str(path), header)
        assert str(err.value) == message.format(path=path)
        assert err.value.code == cli.EXIT_PARSE

    @pytest.mark.parametrize("text, header, rows", [
        ("\n0,1,2\n\n3,4,5\n\n", False, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]),
        ("x,y,z\n0,1,2\n", True, [[0.0, 1.0, 2.0]]),
        ("\n0,1,2\n", True, [[0.0, 1.0, 2.0]]),  # line 1 is the header, even blank
        (" 1 ,2e0,-0.5\n", False, [[1.0, 2.0, -0.5]]),
        pytest.param("0," + "0" * 140000 + "1.5,2\n", False, [[0.0, 1.5, 2.0]],
                     id="over-field-limit"),
        ("1_000,\uff11,\u0663\r\n", False, [[1000.0, 1.0, 3.0]]),
    ])
    def test_rows(self, tmp_path, text, header, rows):
        path = tmp_path / "p.csv"
        path.write_text(text)
        X = cli.read_points(str(path), header)
        assert X.dtype == np.float64
        assert X.tolist() == rows

    def test_gz_name_is_read_as_text(self, tmp_path):
        path = tmp_path / "points.csv.gz"
        path.write_text("0,1,2\n")
        assert cli.read_points(str(path), False).tolist() == [[0.0, 1.0, 2.0]]

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=500, deadline=None, derandomize=True)
    @example((b"0,x\n0,1\n\xff\n", False))  # the line that is not UTF-8 is named
    @given(csv_files())
    def test_same_as_reference(self, case):
        data, header = case
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "p.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            got = read_outcome(cli.read_points, path, header)
            assert got == read_outcome(csv_points.read_points, path, header)


class TestPcaCommand:
    def test_artifacts_written(self, capsys, tmp_path):
        pts = tmp_path / "u4.csv"
        write_u4_csv(pts)
        prefix = str(tmp_path / "out")
        code, out = run(capsys, "pca", str(pts), "-s", "3", "--out-prefix", prefix)
        assert code == 0
        coords = (tmp_path / "out.coords.csv").read_text().strip().splitlines()
        assert len(coords) == 6
        svg = ET.parse(tmp_path / "out.svg").getroot()
        circles = [el for el in svg.iter() if el.tag.endswith("circle")]
        assert len(circles) == 6

    def test_s_equals_rows_gives_zero(self, capsys, tmp_path):
        pts = tmp_path / "u4.csv"
        write_u4_csv(pts, count=4)
        code, out = run(capsys, "pca", str(pts), "-s", "4")
        assert envelope_of(out)["result"]["objective"] == pytest.approx(0.0, abs=1e-9)


class TestSvmCommands:
    @pytest.fixture
    def train_csv(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("svm")
        two = make_two_class_sample(
            SimConfig(4, 1.0, 2, 5), SimConfig(4, 1.0, 102, 5), separation=1.0
        )
        path = d / "train.csv"
        with open(path, "w") as fh:
            for u, lab in zip(two.ultrametrics, two.labels):
                fh.write(",".join(f"{v:.12g}" for v in u.values) + f",{lab}\n")
        return path

    def test_train_then_predict(self, capsys, tmp_path, train_csv):
        model_path = tmp_path / "model.json"
        code, out = run(
            capsys, "svm", "train", str(train_csv), "--model-out", str(model_path)
        )
        assert code == 0
        env = envelope_of(out)
        assert env["diagnostics"]["training_accuracy"] == 1.0
        assert env["result"]["margin"] > 0

        pred_csv = tmp_path / "pred.csv"
        rows = [ln.rsplit(",", 1)[0] for ln in train_csv.read_text().splitlines()]
        pred_csv.write_text("\n".join(rows) + "\n")
        code, out = run(
            capsys, "svm", "predict", str(pred_csv), "--model", str(model_path)
        )
        assert code == 0
        labels = [ln for ln in out.strip().splitlines() if ln in ("0", "1")]
        assert labels == ["0"] * 5 + ["1"] * 5

    @pytest.mark.parametrize("C", ["1e308", "1.7e308"])
    def test_huge_C_trains_and_terminates(self, capsys, train_csv, C):
        # the sample is separable, so the slack penalty near the float range
        # reproduces the hard margin; the timeout catches a simplex that
        # never stops
        proc = subprocess.run(
            [sys.executable, "-m", "tropstat.cli", "svm", "train", str(train_csv),
             "--mode", "soft", "--C", C],
            capture_output=True, text=True, env=src_env(), timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        soft = envelope_of(proc.stdout)["result"]
        code, out = run(capsys, "svm", "train", str(train_csv), "--mode", "hard")
        hard = envelope_of(out)["result"]
        assert soft["assignment"] == hard["assignment"]
        assert soft["margin"] == pytest.approx(hard["margin"], abs=1e-9)

    def test_C_1e100_reproduces_hard_margin(self, capsys, train_csv):
        code, out = run(capsys, "svm", "train", str(train_csv), "--mode", "soft", "--C", "1e100")
        assert code == 0
        soft = envelope_of(out)["result"]
        code, out = run(capsys, "svm", "train", str(train_csv), "--mode", "hard")
        hard = envelope_of(out)["result"]
        assert soft["assignment"] == hard["assignment"]
        assert soft["margin"] == pytest.approx(hard["margin"], abs=1e-9)

    def test_one_feature_column_is_2(self, capsys, tmp_path):
        data = tmp_path / "one.csv"
        data.write_text("1,0\n2,1\n")
        code, out = run(capsys, "svm", "train", str(data))
        assert code == 2
        assert envelope_of(out)["result"]["message"] == (
            "a tropical point needs at least 2 coordinates")

    def test_predict_rounds_no_floats(self, capsys, tmp_path, train_csv, monkeypatch):
        model_path = tmp_path / "model.json"
        run(capsys, "svm", "train", str(train_csv), "--model-out", str(model_path))
        pred_csv = tmp_path / "pred.csv"
        pred_csv.write_text("0,1,1,1,1,1\n0.5,0.25,2,1,1,0\n" * 50)
        calls = []
        real = cli._round_floats
        monkeypatch.setattr(cli, "_round_floats", lambda obj: calls.append(obj) or real(obj))
        code, out = run(capsys, "svm", "predict", str(pred_csv), "--model", str(model_path))
        assert code == 0
        assert len(out.split()) == 100
        assert calls == []

    def test_predict_reads_data_once(self, capsys, tmp_path, train_csv, monkeypatch):
        model_path = tmp_path / "model.json"
        run(capsys, "svm", "train", str(train_csv), "--model-out", str(model_path))
        read = []
        real = cli.read_points
        monkeypatch.setattr(cli, "read_points", lambda *a: read.append(a) or real(*a))
        pred_csv = tmp_path / "pred.csv"
        pred_csv.write_text("0,1,1,1,1,1\n")
        code, _ = run(capsys, "svm", "predict", str(pred_csv), "--model", str(model_path))
        assert code == 0
        assert len(read) == 1


class TestTreeCommands:
    def test_newick_to_ultra_reference(self, capsys, tmp_path):
        nwk = tmp_path / "t.nwk"
        nwk.write_text("(((a:0.6,b:0.6):0.3,c:0.9):0.1,d:1.0);\n")
        code, out = run(capsys, "tree", "newick2ultra", str(nwk))
        assert code == 0
        first = out.strip().splitlines()[0]
        assert first == "1.2,1.8,2,1.8,2,2"

    def test_round_trip(self, capsys, tmp_path):
        vec = tmp_path / "u.csv"
        out_nwk = tmp_path / "t.nwk"
        vec.write_text("1.2,1.8,2,1.8,2,2\n")
        code, _ = run(capsys, "tree", "ultra2newick", str(vec), "--out", str(out_nwk))
        assert code == 0
        code, out = run(capsys, "tree", "newick2ultra", str(out_nwk))
        assert out.strip().splitlines()[0] == "1.2,1.8,2,1.8,2,2"

    def test_check_counts_topologies(self, capsys, tmp_path):
        pts = tmp_path / "u4.csv"
        write_u4_csv(pts, seed=7, count=40)
        code, out = run(capsys, "tree", "check", str(pts))
        env = envelope_of(out)
        assert env["result"]["all_ultrametric"] is True
        assert env["result"]["topology_count"] >= 1

    def test_check_runs_one_three_point_check_per_file(
        self, capsys, tmp_path, monkeypatch
    ):
        pts = tmp_path / "u4.csv"
        write_u4_csv(pts, seed=7, count=40)
        names = ("t1", "t2", "t3", "t4")
        maps = [
            DissimilarityMap(4, tuple(map(float, ln.split(","))), names)
            for ln in pts.read_text().splitlines()
        ]
        topologies = {topology_id(ultrametric_to_tree(u)) for u in maps}
        calls = []
        real = treeio.three_point_check

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(treeio, "three_point_check", counting)
        monkeypatch.setattr(cli, "three_point_check", counting)
        code, out = run(capsys, "tree", "check", str(pts))
        env = envelope_of(out)
        assert code == 0
        assert len(calls) == 1
        assert env["result"]["verdicts"] == [True] * 40
        assert env["result"]["topology_count"] == len(topologies) > 1

    @pytest.mark.parametrize("action", ["check", "ultra2newick"])
    def test_two_leaf_rows_are_3(self, capsys, tmp_path, action):
        data = tmp_path / "n2.csv"
        data.write_text("0.5\n1\n")
        code, out = run(capsys, "tree", action, str(data))
        assert code == 3
        assert envelope_of(out)["result"]["message"] == (
            "row 1: a tree needs at least 3 leaves, got 2")

    @pytest.mark.parametrize("action", ["check", "ultra2newick"])
    @pytest.mark.parametrize("text, code, message", [
        ("1,2\n", 3, "row 1: length 2 is not a binomial C(N,2)"),
        ("1,2,2\n1,-2,2\n-1,2,2\n", 2, "row 2: dissimilarities must be nonnegative"),
    ])
    def test_bad_rows_name_the_first(self, capsys, tmp_path, action, text, code, message):
        data = tmp_path / "u.csv"
        data.write_text(text)
        got, out = run(capsys, "tree", action, str(data))
        assert got == code
        assert envelope_of(out)["result"]["message"] == message

    def test_newick_leaf_sets_must_agree(self, capsys, tmp_path):
        nw = tmp_path / "nw.txt"
        nw.write_text("((a:1,b:1):1,c:2);\n\n((x:1,y:1):1,z:2);\n"
                      "((a:1,b:1):1,(c:0.5,d:0.5):1.5);\n")
        code, out = run(capsys, "tree", "newick2ultra", str(nw))
        assert code == 3
        assert envelope_of(out)["result"]["message"] == (
            f"{nw}:3: leaf names differ from the first tree's")

    @pytest.mark.parametrize("height", ["nan", "inf"])
    def test_simulate_non_finite_height_is_5(self, capsys, height):
        code, out = run(capsys, "tree", "simulate", "--n", "4", "--count", "2",
                        "--height", height)
        assert code == 5
        assert envelope_of(out)["result"]["message"] == "height must be finite"

    def test_missing_input_is_5(self, capsys):
        code, out = run(capsys, "tree", "check")
        assert code == 5
        assert envelope_of(out)["result"]["message"] == "missing input file"

    def test_simulate_writes_newick(self, capsys, tmp_path):
        out_file = tmp_path / "sim.nwk"
        code, out = run(
            capsys, "--seed", "7", "tree", "simulate",
            "--n", "4", "--count", "50", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 50
        assert all(ln.endswith(";") for ln in lines)

    def test_simulate_requires_n_and_count(self, capsys):
        code, _ = run(capsys, "tree", "simulate")
        assert code == 5


class TestExperimentalCommands:
    def test_regress_flags_experimental(self, capsys, tmp_path):
        data = tmp_path / "reg.csv"
        data.write_text("\n".join(f"{x},{max(1.0, 0.5 + x)}" for x in range(6)) + "\n")
        code, out = run(capsys, "--seed", "1", "regress", str(data))
        env = envelope_of(out)
        assert code == 0
        assert env["result"]["experimental"] is True
        assert env["result"]["residual_sum"] < 1e-6

    def test_lda_flags_experimental(self, capsys, tmp_path):
        c0 = tmp_path / "c0.csv"
        c1 = tmp_path / "c1.csv"
        write_u4_csv(c0, seed=1, count=3)
        write_u4_csv(c1, seed=2, count=3)
        code, out = run(capsys, "--seed", "1", "lda", str(c0), str(c1))
        assert code == 0
        assert envelope_of(out)["result"]["experimental"] is True


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("metric", "0,0,0", "0,3,1"),
            ("--seed", "7", "tree", "simulate", "--n", "4", "--count", "30"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, a = run(capsys, *argv)
        _, b = run(capsys, *argv)
        assert a == b

    def test_seeded_file_commands_identical(self, capsys, tmp_path):
        pts = tmp_path / "u4.csv"
        write_u4_csv(pts)
        _, a = run(capsys, "--seed", "3", "pca", str(pts), "-s", "3")
        _, b = run(capsys, "--seed", "3", "pca", str(pts), "-s", "3")
        assert a == b


# --- the exit-code contract under random argv --------------------------------
#
# A run is (argv, files): "@name" in argv is the file `name` of a fresh
# directory, written from files[name]; other arguments pass through, so
# "/nonexistent/..." stays an unwritable or unreadable path.

U_ROWS = [  # by leaf count; the last row of each fails the three-point condition
    ["1,2,2", "2,1,2", "2,2,1", "0,0,0", "1,2,3"],
    ["1.2,1.8,2,1.8,2,2", "0.2,2,2,2,2,1", "1,1,1,1,1,1", "1,2,3,4,5,6"],
]
NUMBERS = ["0", "1", "-1", "0.5", "2.25", "3", "-2.5", "1e3", "1e308", "-1e308"]
JUNK = ["nan", "inf", "-inf", "x", "", "1e400", " 1", "0x1"]
NEWICKS = [
    "((a:1,b:1):1,c:2);", "(((a:0.6,b:0.6):0.3,c:0.9):0.1,d:1.0);",
    "((a:1,b:2):1,(c:0.5,d:0.5):1.5)r:0.5;", "(a:1,b:1);", "((a,b),c);",
    "((a:1,b:1):1,c:2)", "(a:1,a:1);", "(:1,b:1);", "(a:x,b:1);", "((a:1,b:1);",
    "(a:1,b:1); junk", "(a:-1,b:1);", ";", "", "a;",
]
MODEL = {
    "omega": [0.0, 0.5, -0.5],
    "assignment": {"ip": 0, "jp": 1, "iq": 1, "jq": 2},
    "margin": 0.25,
    "mode": "hard",
    "C": None,
}
JSON_JUNK = [None, 7, -1, 1.5, "x", True, [], [0, 1], {}]


def model_text(**changes):
    model = json.loads(json.dumps(MODEL))
    for key, value in changes.items():
        if key in model["assignment"]:
            model["assignment"][key] = value
        else:
            model[key] = value
    return json.dumps(model)


@st.composite
def csv_texts(draw, kinds=("ultrametric", "numbers", "labelled", "dirty")):
    """At most 6 rows of at most 6 cells: ultrametric rows, numbers, numbers
    with alternating 0/1 labels, or numbers mixed with bad cells and ragged
    rows."""
    kind = draw(st.sampled_from(kinds))
    if kind == "ultrametric":
        rows = st.sampled_from(draw(st.sampled_from(U_ROWS)))
        return "\n".join(draw(st.lists(rows, min_size=1, max_size=6)))
    ncol = draw(st.integers(1, 6))
    cells = st.sampled_from(NUMBERS + JUNK if kind == "dirty" else NUMBERS)
    width = st.integers(max(1, ncol - 1), ncol) if kind == "dirty" else st.just(ncol)
    rows = draw(st.lists(st.builds(lambda k, c: c[:k], width, st.lists(
        cells, min_size=ncol, max_size=ncol)), min_size=kind != "dirty", max_size=6))
    if kind == "labelled":
        rows = [row[:-1] + [str(k % 2)] for k, row in enumerate(rows)]
    return "\n".join(",".join(row) for row in rows) + draw(st.sampled_from(["", "\n"]))


@st.composite
def model_texts(draw):
    """The model above, with one key dropped or set to junk, or junk itself."""
    kind = draw(st.sampled_from(["valid", "set", "drop", "junk", "text"]))
    key = draw(st.sampled_from(["omega", "margin", "mode", "ip", "jp", "iq", "jq"]))
    if kind == "set":
        return model_text(**{key: draw(st.sampled_from(JSON_JUNK))})
    if kind == "drop":
        model = json.loads(model_text())
        del (model if key in model else model["assignment"])[key]
        return json.dumps(model)
    if kind == "junk":
        return json.dumps(draw(st.sampled_from(JSON_JUNK)))
    return model_text() if kind == "valid" else "{not json"


@st.composite
def cli_runs(draw):
    files = {}

    def new_file(content):
        name = f"f{len(files)}"
        files[name] = draw(content)
        return "@" + name

    def csv_file(*kinds):
        kind = draw(st.sampled_from(["csv"] * 6 + ["missing", "directory"]))
        if kind == "csv":
            return new_file(csv_texts(*kinds))
        return "/nonexistent/in.csv" if kind == "missing" else "@"

    def out_path():
        return draw(st.sampled_from(["@out", "/nonexistent/out"]))

    def small_int(lo, hi):
        return str(draw(st.integers(lo, hi)))

    argv = []
    if draw(st.booleans()):
        argv += ["--seed", small_int(-1, 5)]
    if draw(st.booleans()):
        argv += ["--tol", draw(st.sampled_from(["0", "1e-9", "1e-6", "0.5", "-1"]))]
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(["--header", "--quiet"])))
    command = draw(st.sampled_from([
        "metric", "fw", "frechet", "pca", "svm train", "svm predict", "tree newick2ultra",
        "tree ultra2newick", "tree check", "tree simulate", "lda", "regress",
    ]))
    argv += command.split()
    if command == "metric":
        if draw(st.booleans()):
            vector = st.lists(st.sampled_from(NUMBERS + ["nan", "x"]), min_size=1, max_size=6)
            argv += [",".join(draw(vector)) + ",0", ",".join(draw(vector))]
        else:
            argv += [csv_file(), csv_file()]
    elif command in ("fw", "frechet"):
        argv.append(csv_file())
        if draw(st.booleans()):
            argv += ["--check-ultrametric", small_int(-1, 4)]
    elif command == "pca":
        argv += [csv_file(), "-s", small_int(0, 7)]
        if draw(st.booleans()):
            argv += ["--out-prefix", out_path()]
    elif command == "svm train":
        argv.append(csv_file(("labelled", "labelled", "dirty")))
        if draw(st.booleans()):
            argv += ["--mode", "soft", "--C", draw(st.sampled_from(["0.01", "1", "10", "-1"]))]
        if draw(st.booleans()):
            argv += ["--model-out", out_path()]
    elif command == "svm predict":
        argv += [csv_file(), "--model", new_file(model_texts())]
    elif command == "tree newick2ultra":
        argv.append(new_file(st.lists(st.sampled_from(NEWICKS), min_size=1, max_size=4).map("\n".join)))
    elif command == "tree simulate":
        argv += ["--n", draw(st.sampled_from(["4", "8", "3", "2"])),
                 "--count", draw(st.sampled_from(["2", "5", "1", "0"]))]
        if draw(st.booleans()):
            argv += ["--height", draw(st.sampled_from(["0.5", "0", "-1", "inf"]))]
    elif command.startswith("tree"):
        argv.append(csv_file())
    elif command == "lda":
        argv += [csv_file(), csv_file()]
    else:
        argv.append(csv_file())
    if command.startswith("tree") and command != "tree check" and draw(st.booleans()):
        argv += ["--out", out_path()]
    return argv, files


def run_in(directory, argv, files):
    """main(argv) with "@name" resolved in directory; (exit code, stdout)."""
    for name, content in files.items():
        data = content if isinstance(content, bytes) else content.encode()
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(data)
    argv = [os.path.join(directory, a[1:]) if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


ONE_COLUMN = "0\n1\n"
TREES = "((a:1,b:1):1,c:2);\n"
POINTS = "0,1,2\n0,2,1\n0,-1,1\n0,1,-1\n"
LABELLED = "0,1,2,0\n0,2,1.5,0\n0,-1,-2,1\n0,-2,-1.5,1\n"
OVERFLOW = "0,1e308,-1e308\n1,-1e308,1e308\n0,0,0\n"
NEAR_MAX = "9e307,-9e307,9e307\n-9e307,9e307,-9e307\n9e307,9e307,-9e307\n"
CONTRACT_CASES = [
    # unwritable outputs
    (["tree", "newick2ultra", "@t", "--out", "/nonexistent/o.csv"], {"t": TREES}, 2),
    (["pca", "@p", "-s", "3", "--out-prefix", "/nonexistent/x"], {"p": POINTS}, 2),
    (["svm", "train", "@d", "--mode", "soft", "--model-out", "/nonexistent/m.json"],
     {"d": LABELLED}, 2),
    # bad parameters
    (["--seed", "-1", "tree", "simulate", "--n", "4", "--count", "2"], {}, 5),
    (["--seed", "-1", "lda", "@p", "@p"], {"p": POINTS}, 5),
    (["--seed", "-1", "regress", "@p"], {"p": POINTS}, 5),
    (["fw", "@p", "--check-ultrametric", "0"], {"p": POINTS}, 3),
    # input files
    (["metric", "@a", "@a"], {"a": ONE_COLUMN}, 2),
    (["fw", "@p"], {"p": b"0,1\n\xff,2\n"}, 2),
    (["svm", "predict", "@p", "--model", "@m"], {"p": POINTS, "m": model_text(margin=None)}, 2),
    (["svm", "predict", "@p", "--model", "@m"], {"p": POINTS, "m": "[1, 2]"}, 2),
    (["svm", "predict", "@p", "--model", "@m"], {"p": POINTS, "m": model_text(ip=7)}, 2),
    (["svm", "predict", "@p", "--model", "@m"], {"p": POINTS, "m": model_text(jq=-1)}, 2),
    (["tree", "newick2ultra", "@t"], {"t": TREES.encode() + b"((\xff:1,b:1):1,c:2);\n"}, 2),
    # a leaf count under 3 whose C(N, 2) is the dimension, as C(-2, 2) = 3
    # is; appended last so that the earlier cases keep their ids
    (["fw", "@p", "--check-ultrametric", "-2"], {"p": POINTS}, 3),
    # coordinate differences overflow to infinity; appended last as well
    (["fw", "@p"], {"p": OVERFLOW}, 4),
    # every other command on overflowing input, and Newick trees that have
    # no dissimilarity map; appended last as well
    (["lda", "@p", "@p"], {"p": OVERFLOW}, 4),
    (["regress", "@p"], {"p": OVERFLOW}, 4),
    (["pca", "@p", "-s", "1"], {"p": OVERFLOW}, 4),
    (["pca", "@p", "-s", "2"], {"p": OVERFLOW}, 4),
    (["svm", "train", "@d"], {"d": "0,1e308,-1e308,0\n1,-1e308,1e308,1\n0,0,0,0\n"}, 4),
    (["metric", "0,1e308,-1e308", "0,-1e308,1e308"], {}, 4),
    # an exact fit, beta (1e308, 0, 0): _line_min sums about one response
    (["regress", "@p"], {"p": "1e308,1e308,1e308\n" * 3}, 0),
    (["pca", "@p", "-s", "2"], {"p": NEAR_MAX}, 4),
    (["lda", "@p", "@p"], {"p": NEAR_MAX}, 4),
    (["regress", "@p"], {"p": NEAR_MAX}, 4),
    (["tree", "newick2ultra", "@t"], {"t": "a;\n"}, 2),
    (["tree", "newick2ultra", "@t"], {"t": "((a:1e308,b:1e308):1e308,c:1e308);\n"}, 2),
]
NOT_UTF8 = [(argv, files) for argv, files, _ in CONTRACT_CASES
            if any(isinstance(content, bytes) for content in files.values())]


def with_contract_examples(test):
    for argv, files, _ in CONTRACT_CASES:
        test = example((argv, files))(test)
    return test


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.filterwarnings("error")
class TestContractFuzz:
    @pytest.mark.parametrize("argv, files, code", CONTRACT_CASES)
    def test_contract_case(self, tmp_path, schema, argv, files, code):
        got, out = run_in(tmp_path, argv, files)
        assert got == code
        env = strict_json(out.splitlines()[-1])
        jsonschema.validate(env, schema)
        assert env["status"] == ("error" if code else "ok")

    @pytest.mark.parametrize("argv, files", NOT_UTF8)
    def test_not_utf8_names_file_and_line(self, tmp_path, argv, files):
        _, out = run_in(tmp_path, argv, files)
        (name,) = files
        message = json.loads(out.splitlines()[-1])["result"]["message"]
        assert message == f"{tmp_path / name}:2: not UTF-8 text (byte 0xff)"

    @settings(max_examples=400, deadline=None, derandomize=True)
    @with_contract_examples
    @given(cli_runs())
    def test_main_keeps_the_exit_code_contract(self, schema, run):
        with tempfile.TemporaryDirectory() as directory:
            code, out = run_in(directory, *run)
        assert code in (0, 2, 3, 4, 5, 6, 7)
        if code:
            env = strict_json(out.splitlines()[-1])
            jsonschema.validate(env, schema)
            assert env["status"] == "error"
