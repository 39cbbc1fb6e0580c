import array
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnasel import _ckernel, clustering, ingest
from rnasel.errors import ValidationError
from rnasel.ingest import (
    IngestReport,
    compute_ratios,
    load_matrix,
    load_meta,
    load_weights,
    replacement_value,
    write_matrix,
    write_meta,
    write_weights,
)
from rnasel.model import PairWeights, SampleMeta, SampleRecord

from conftest import make_matrix, make_meta


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


MATRIX_TSV = (
    "feature_id\ts0\ts1\n"
    "f0\t1.0\t2.0\n"
    "f1\t3.5\t0\n"
    "f2\t2e-1\t4.25\n"
)

META_TSV = (
    "sample_id\trole\tcompound\treplicate\tcontrol_id\n"
    "c1\tcontrol\t\t1\t\n"
    "c2\tcontrol\t\t2\t\n"
    "a1\ttreated\ta\t1\tc1\n"
    "a2\ttreated\ta\t2\tc2\n"
)


class TestLoadMatrix:
    def test_tsv(self, tmp_path):
        m, report = load_matrix(write(tmp_path / "m.tsv", MATRIX_TSV))
        assert m.feature_ids == ("f0", "f1", "f2")
        assert m.sample_ids == ("s0", "s1")
        assert m.values[2, 0] == pytest.approx(0.2)
        assert report.dropped_features == []

    def test_csv(self, tmp_path):
        text = MATRIX_TSV.replace("\t", ",")
        m, _ = load_matrix(write(tmp_path / "m.csv", text))
        assert m.n_features == 3

    def test_negative_value_names_position(self, tmp_path):
        bad = MATRIX_TSV.replace("3.5", "-1.5")
        with pytest.raises(ValidationError, match=r"m\.tsv:3.*s0"):
            load_matrix(write(tmp_path / "m.tsv", bad))

    def test_non_numeric_named(self, tmp_path):
        bad = MATRIX_TSV.replace("4.25", "oops")
        with pytest.raises(ValidationError, match=r"m\.tsv:4.*s1"):
            load_matrix(write(tmp_path / "m.tsv", bad))

    def test_all_zero_feature_dropped_and_reported(self, tmp_path):
        text = MATRIX_TSV + "fz\t0\t0.0\n"
        m, report = load_matrix(write(tmp_path / "m.tsv", text))
        assert "fz" not in m.feature_ids
        assert report.dropped_features == ["fz"]
        assert report.warnings

    def test_ragged_row(self, tmp_path):
        bad = MATRIX_TSV + "f3\t1.0\n"
        with pytest.raises(ValidationError, match="ragged"):
            load_matrix(write(tmp_path / "m.tsv", bad))

    def test_duplicate_feature(self, tmp_path):
        bad = MATRIX_TSV + "f0\t1\t1\n"
        with pytest.raises(ValidationError, match="duplicate"):
            load_matrix(write(tmp_path / "m.tsv", bad))

    def test_bad_header(self, tmp_path):
        bad = MATRIX_TSV.replace("feature_id", "gene")
        with pytest.raises(ValidationError, match="feature_id"):
            load_matrix(write(tmp_path / "m.tsv", bad))

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_matrix(tmp_path / "nope.tsv")

    def test_line_numbers_count_blank_lines(self, tmp_path):
        text = "feature_id\ts0\ts1\n\nf0\t1\t2\n\nf1\t-3\t1\n"
        with pytest.raises(ValidationError, match=r"m\.tsv:5: negative value '-3' in column 's0'"):
            load_matrix(write(tmp_path / "m.tsv", text))

    def test_header_line_number_after_leading_blank_lines(self, tmp_path):
        with pytest.raises(ValidationError, match=r"m\.tsv:3: first header field"):
            load_matrix(write(tmp_path / "m.tsv", "\n \t \ngene\ts0\ts1\nf0\t1\t2\n"))

    def test_first_fault_in_file_order_wins(self, tmp_path):
        negative_first = MATRIX_TSV.replace("3.5", "-1.5") + "f3\t1.0\n"
        with pytest.raises(ValidationError, match=r"m\.tsv:3: negative value '-1\.5'"):
            load_matrix(write(tmp_path / "m.tsv", negative_first))
        ragged_first = "feature_id\ts0\ts1\nf0\t1\nf1\t-1\t2\n"
        with pytest.raises(ValidationError, match=r"m\.tsv:2: expected 3 fields, got 2"):
            load_matrix(write(tmp_path / "m.tsv", ragged_first))

    @pytest.mark.parametrize("later", [
        ["f400\t1\tnope\t1", "f401\t1\t2"],  # a non-numeric row, then a ragged one
        ["f400\t1\t2\t3", "f401\t1\t2\t-9"],  # a good row, then another negative one
        [],  # the bad row is the last
    ], ids=["non-numeric-then-ragged", "later-negative", "last-row"])
    def test_first_fault_after_many_good_rows(self, tmp_path, later):
        # rows are checked as one block; the first bad cell in file order still wins
        good = [f"f{i}\t{i + 1}\t0.5\t{i}" for i in range(399)]
        lines = ["feature_id\ts0\ts1\ts2", *good[:200], "", *good[200:], "f399\t1\t-0.5e0\t-2", *later]
        # data row 400 is physical line 402: after the header and a blank line
        with pytest.raises(ValidationError, match=r"m\.tsv:402: negative value '-0\.5e0' in column 's1'$"):
            load_matrix(write(tmp_path / "m.tsv", "\n".join(lines) + "\n"))

    def test_all_zero_rows_among_many_dropped_in_order(self, tmp_path):
        zero_rows = (0, 17, 500, 998)
        rows = [[0.0, 0.0, 0.0] if i in zero_rows else [i + 1.0, 0.0, i / 7] for i in range(1000)]
        lines = ["feature_id\ts0\ts1\ts2"] + [f"f{i}\t" + "\t".join(map(repr, row)) for i, row in enumerate(rows)]
        m, report = load_matrix(write(tmp_path / "m.tsv", "\n".join(lines) + "\n"))
        assert report.dropped_features == [f"f{i}" for i in zero_rows]
        assert report.warnings == ["dropped 4 all-zero feature(s)"]
        kept = [i for i in range(1000) if i not in zero_rows]
        assert m.feature_ids == tuple(f"f{i}" for i in kept)
        assert m.values.tolist() == [rows[i] for i in kept]

    def test_first_fault_within_a_row_wins(self, tmp_path):
        cases = [
            ("oops\tinf\t-1", "non-numeric value 'oops' in column 's0'"),
            ("inf\toops\t-1", "non-finite value 'inf' in column 's0'"),
            ("1\t-1\toops", "negative value '-1' in column 's1'"),
            ("1\t2\tnan", "non-finite value 'nan' in column 's2'"),
            ("1\t \t2", "non-numeric value '' in column 's1'"),
        ]
        for levels, message in cases:
            text = f"feature_id\ts0\ts1\ts2\nf0\t1\t2\t3\nf1\t{levels}\n"
            with pytest.raises(ValidationError, match=r"m\.tsv:3: " + message):
                load_matrix(write(tmp_path / "m.tsv", text))

    def test_values_equal_per_token_float(self, tmp_path):
        rng = np.random.default_rng(7)
        formats = ("{!r}", "{:.3e}", "{:.17g}", " {:.6f} ", "{:.0f}", "0")
        for _ in range(5):
            f, s = int(rng.integers(2, 30)), int(rng.integers(2, 9))
            raw = rng.lognormal(0.0, 4.0, size=(f, s)).tolist()
            tokens = [[formats[int(rng.integers(len(formats)))].format(v) for v in row] for row in raw]
            for row in tokens:
                if not any(float(tok) for tok in row):
                    row[0] = "1"  # all-zero rows are dropped
            lines = ["feature_id\t" + "\t".join(f"s{j}" for j in range(s))]
            lines += [f"f{i}\t" + "\t".join(row) for i, row in enumerate(tokens)]
            m, _ = load_matrix(write(tmp_path / "m.tsv", "\n".join(lines) + "\n"))
            want = np.array([[float(tok) for tok in row] for row in tokens])
            assert m.values.tobytes() == want.tobytes()

    def test_unusual_tokens_parse_as_python_float(self, tmp_path):
        tokens = ("1_0", "\u0661\u0662", "  2.5  ", "+4", "-0", "1e-320", "0.1")
        text = "feature_id\t" + "\t".join(f"s{j}" for j in range(len(tokens))) + "\n"
        text += "f0\t" + "\t".join(tokens) + "\nf1\t" + "\t".join("1" for _ in tokens) + "\n"
        m, _ = load_matrix(write(tmp_path / "m.tsv", text))
        assert m.values[0].tolist() == [float(tok) for tok in tokens]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_pipe_is_read_once(self, tmp_path):
        fifo = tmp_path / "m.tsv"
        os.mkfifo(fifo)
        threading.Thread(target=fifo.write_text, args=(MATRIX_TSV,), daemon=True).start()
        loaded = []
        reader = threading.Thread(target=lambda: loaded.append(load_matrix(fifo)), daemon=True)
        reader.start()
        reader.join(timeout=10)
        assert loaded, "load_matrix did not read the pipe"
        assert loaded[0][0].feature_ids == ("f0", "f1", "f2")

    def test_quoted_fields_whitespace_rows_and_padding(self, tmp_path):
        text = (
            'feature_id,"s0", s1 \n'
            '"f,0", 1.5 ,"2"\n'
            " , \n"
            '  f1  ,"3",4\n'
        )
        m, report = load_matrix(write(tmp_path / "m.csv", text))
        assert m.feature_ids == ("f,0", "f1")
        assert m.sample_ids == ("s0", "s1")
        assert m.values.tolist() == [[1.5, 2.0], [3.0, 4.0]]
        assert report.dropped_features == []


def compiled_library():
    lib = _ckernel.load()
    if lib is None:
        pytest.skip("the C library cannot be built here")
    return lib


def parse_one_row(lib, tokens, delim="\t"):
    """The numbers the C parser reads from one row of ``tokens``, or None."""
    row = bytearray(("f" + delim + delim.join(tokens) + "\n").encode())
    values = np.empty((1, len(tokens)))
    if _ckernel.parse_rows(lib, row, 0, len(row), delim, values, np.empty((1, 2), np.int64), len(row)) != (1, len(row)):
        return None
    return values[0]


DIGITS = st.text("0123456789", min_size=1, max_size=60)
NUMBER_TEXT = st.one_of(
    st.builds(
        str.format,
        st.sampled_from(["{!r}", "{:.17g}", "{:.3e}", "{:.0f}"]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    st.builds(repr, st.floats(min_value=0.0, max_value=2.2250738585072014e-308)),
    st.builds(
        "{}{}.{}e{}".format,
        st.sampled_from(["", "+", "-"]), DIGITS, st.text("0123456789", max_size=60),
        st.one_of(st.integers(-400, 400), st.integers(-345, -300)),
    ),
)


class TestCompiledParser:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(NUMBER_TEXT, min_size=1, max_size=12))
    def test_numbers_have_the_bits_of_float(self, tokens):
        got = parse_one_row(compiled_library(), tokens)
        assert got is not None
        assert got.tobytes() == array.array("d", map(float, tokens)).tobytes()

    @pytest.mark.parametrize("token", [
        "9007199254740992", "9007199254740993", "9007199254740994",  # around 2**53
        "1234567890123456789", "12345678901234567891",  # 19 and 20 significant digits
        "9.999999999999999999e-100", "9.9999999999999999999e-100",
        "0.0000000000000000000001234", "000123.5",  # leading zeros do not count
        "1.00000000000000000000000", "100000000000000000000000",  # zeros after the 19th digit
        "1e-342", "1e-343", "1e308", "1e309",  # the table's ends
        "2.2250738585072011e-308",  # just under the smallest normal number
        "1e0000000000000000000000001", "1e-9999999999999999999999999",  # 25-digit exponents
        "1e18446744073709551617", "1e-18446744073709551617",  # 2**64 + 1 would wrap to 1
        pytest.param("0." + "0" * 99999 + "1e1000005", id="an exponent past the cap"),
    ])
    def test_converter_edge_cases_have_the_bits_of_float(self, token):
        got = parse_one_row(compiled_library(), [token, "-" + token])
        assert got is not None
        assert got.tobytes() == array.array("d", [float(token), float("-" + token)]).tobytes()

    @pytest.mark.parametrize("token", [
        "", " 1", "1 ", "1_0", "\u0661", "nan", "inf", "0x1p3", "1e", "1e+", ".", "+", "e5", "1.5.2", "1,5",
    ])
    def test_rejects_numbers_outside_the_strict_form(self, token):
        assert parse_one_row(compiled_library(), ["1", token]) is None

    def test_stops_at_the_first_bad_row_and_reads_only_its_block(self):
        lib = compiled_library()
        block = bytearray(b"a\t1\t2\nb\t3\t4\r\nc\t5\t6\nd\t7\t8\n")
        values, spans = np.empty((4, 2)), np.empty((4, 2), np.int64)

        def parse(start, stop, rows=4, max_field=100):
            """(rows parsed, bytes consumed, their ids)"""
            got, used = _ckernel.parse_rows(lib, block, start, stop, "\t", values[:rows], spans[:rows], max_field)
            return got, used, [bytes(block[s:e]) for s, e in spans[:got].tolist()]

        assert parse(0, len(block)) == (4, len(block), [b"a", b"b", b"c", b"d"])
        assert values.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]
        # no more rows than values has room for
        assert parse(0, len(block), rows=3) == (3, 19, [b"a", b"b", b"c"])
        # the block ends inside the last number's row end: no row is read past it
        assert parse(0, len(block) - 1) == (3, 19, [b"a", b"b", b"c"])
        assert parse(0, 10) == (1, 6, [b"a"])
        # consumed bytes count from start; ids are offsets into the whole block
        assert parse(6, len(block)) == (3, len(block) - 6, [b"b", b"c", b"d"])
        # a field longer than max_field
        assert parse(0, len(block), max_field=0) == (0, 0, [])
        block[15] = ord("x")  # row c's first number
        assert parse(0, len(block)) == (2, 13, [b"a", b"b"])
        with pytest.raises(ValueError, match="outside"):
            parse(0, len(block) + 1)
        with pytest.raises(ValueError, match="do not match"):
            _ckernel.parse_rows(lib, block, 0, len(block), "\t", values, spans[:3], 100)


FLOAT64 = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: np.array(bits, np.uint64).view(np.float64).item()),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=-1e-290, max_value=1e-290),
)


def python_row(values, delim="\t") -> bytes:
    return ("".join(delim + "%.17g" % x for x in values) + "\n").encode()


class TestCompiledFormatter:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(FLOAT64, min_size=1, max_size=12))
    def test_rows_have_the_bytes_of_percent_g(self, values):
        row = np.array([values])
        assert bytes(next(_ckernel.format_rows(compiled_library(), row, "\t"))) == python_row(row[0].tolist())

    def test_yields_each_row_in_turn(self):
        values = np.array([[1.0, -0.0], [5e-324, np.nan], [1e300, 2**-25]])
        rows = _ckernel.format_rows(compiled_library(), values, ",")
        for want in values.tolist():
            assert bytes(next(rows)) == python_row(want, ",")
        assert next(rows, None) is None

    @pytest.mark.parametrize("delim", ["", ";;", "\u00e9"])
    def test_delimiter_must_be_one_ascii_character(self, delim):
        with pytest.raises(ValueError, match="one ASCII character"):
            next(_ckernel.format_rows(compiled_library(), np.ones((1, 2)), delim))


def write_table_bytes(tmp_path, name, *args) -> bytes:
    path = tmp_path / name
    ingest.write_table(path, *args)
    return path.read_bytes()


def both_writers(tmp_path, monkeypatch, *args) -> tuple[bytes, bytes]:
    """The bytes ``write_table(path, *args)`` writes with the C library and
    without it."""
    compiled_library()
    fast = write_table_bytes(tmp_path, "fast", *args)
    with monkeypatch.context() as patch:
        patch.setattr(_ckernel, "load", lambda: None)
        slow = write_table_bytes(tmp_path, "slow", *args)
    return fast, slow


class TestWriteTable:
    @pytest.mark.parametrize("delim", ["\t", ","])
    @pytest.mark.parametrize("width", [1, 162])
    @pytest.mark.parametrize("layout", ["contiguous", "read-only", "non-contiguous"])
    def test_compiled_and_python_writers_agree(self, tmp_path, monkeypatch, delim, width, layout):
        rng = np.random.default_rng(width)
        values = rng.lognormal(0, 30, size=(7, 2 * width)) * rng.choice([-1.0, 1.0], size=(7, 2 * width))
        values[:4, 0] = [0.0, -0.0, np.inf, np.nan]
        values = values[:, ::2] if layout == "non-contiguous" else np.ascontiguousarray(values[:, ::2])
        values.setflags(write=layout != "read-only")
        columns = [f"c{k}" for k in range(width)]
        rows = ["f0", "géne_α", "基因", "f3", "\U0001f600", "f5", "f6"]
        fast, slow = both_writers(tmp_path, monkeypatch, "feature_id", columns, rows, values, delim)
        assert fast == slow
        assert fast.decode("utf-8").splitlines()[2].startswith("géne_α" + delim)

    def test_dissimilarity_table_agrees(self, tmp_path, monkeypatch):
        labels = ["ctrl", "cmpÄ_1", "cmpÄ_2", "化合物_1"]
        dis = clustering.dissimilarity(labels, np.random.default_rng(2).normal(size=(4, 30)))
        assert not dis.d.flags.writeable
        fast, slow = both_writers(tmp_path, monkeypatch, "label", dis.labels, dis.labels, dis.d)
        assert fast == slow

    def test_interrupted_write_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "m.tsv"
        write_matrix(make_matrix([[1.0, 2.0], [3.0, 4.0]]), path)
        before = path.read_bytes()

        def row_ids():
            yield "a"
            yield "b"
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            ingest.write_table(path, "feature_id", ["s0", "s1"], row_ids(), np.ones((3, 2)))
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]


def load_outcome(path):
    """What ``load_matrix`` gives for ``path``: the matrix and report, or the
    exception's type and message."""
    try:
        matrix, report = load_matrix(path)
    except ValueError as exc:  # ValidationError, or UnicodeDecodeError
        return type(exc), str(exc)
    return matrix.feature_ids, matrix.sample_ids, matrix.values.tobytes(), report


def assert_paths_agree(path, monkeypatch, compiled: bool):
    """The C and Python paths give the same outcome; ``compiled`` says
    whether the C path takes the file."""
    compiled_library()
    took = ingest._parse_compiled(path, ingest._delimiter(path, None)) is not None
    fast = load_outcome(path)
    with monkeypatch.context() as patch:
        patch.setattr(_ckernel, "load", lambda: None)
        slow = load_outcome(path)
    assert fast == slow
    assert took == compiled


HEAD = b"feature_id\ts0\ts1\n"
GOOD = b"f0\t1.5\t2\nf1\t0\t4e-1\n"


class TestCompiledPathMatchesPython:
    @pytest.mark.parametrize("text, compiled", [
        (HEAD + GOOD, True),
        (HEAD + b"f0\t1.5\t2\r\nf1\t0\t4e-1\r\n", True),
        (HEAD.replace(b"\n", b"\r\n") + GOOD, True),
        (b"\xef\xbb\xbf" + HEAD + GOOD, False),
        (HEAD + b'"f0"\t1.5\t2\nf1\t0\t4e-1\n', False),
        (HEAD + b'f0\t"1.5"\t2\nf1\t0\t4e-1\n', False),
        (b'feature_id\t"s0"\ts1\n' + GOOD, False),
        (HEAD + b"f\x000\t1.5\t2\nf1\t0\t4e-1\n", False),
        (HEAD + b"f0\t1.5\r\t2\nf1\t0\t4e-1\n", False),
        (HEAD + b"f0\r\t1.5\t2\nf1\t0\t4e-1\n", False),
        (HEAD + b"f0\t1.5\t2\rf1\t0\t4e-1\n", False),
        (HEAD + b"f0\t1.5\t2\n\nf1\t0\t4e-1\n", False),
        (HEAD + b"f0\t1.5\t2\n \t \t \nf1\t0\t4e-1\n", False),
        (b"\n" + HEAD + GOOD, False),
        (HEAD + b"f0\t 1.5 \t2\nf1\t0\t4e-1\n", False),
        (HEAD + GOOD + b"f2\t1_0\t1\n", False),
        (HEAD + GOOD + "f2\t\u0661\u0662\t1\n".encode(), False),
        (HEAD + GOOD + b"f2\tnan\t1\n", False),
        (HEAD + GOOD + b"f2\t1\tinf\n", False),
        (HEAD + GOOD + b"f2\t1e400\t1\n", False),
        (HEAD + GOOD + b"f2\t1\t-2\n", False),
        (HEAD + GOOD + b"f2\t1\n", False),
        (HEAD + GOOD + b"f2\t1\t2\t3\n", False),
        (HEAD + GOOD + b"f2\t1\t2", False),
        (HEAD + GOOD + "g\u00e8ne \u03b1\t1\t2\n".encode(), True),
        (HEAD + GOOD + b"f\xff\t1\t2\n", False),
        (HEAD + GOOD + b"  f2  \t-0\t.5\nf3\t0\t0\nf4\t0.0\t0e5\n", True),
        (HEAD + GOOD + b"f2\t+5.\t1E+2\nf3\t1e-400\t9007199254740993\n", True),
        (HEAD + GOOD + b"f0\t1\t2\n", True),
        (HEAD, True),
        (b"feature_id\ts0\n" + b"f0\t1\nf1\t2\n", False),
        (b"gene\ts0\ts1\n" + GOOD, False),
        (b"", False),
    ])
    def test_tsv(self, tmp_path, monkeypatch, text, compiled):
        path = tmp_path / "m.tsv"
        path.write_bytes(text)
        assert_paths_agree(path, monkeypatch, compiled)

    @pytest.mark.parametrize("text, compiled", [
        (b"feature_id,s0,s1\nf0,1.5,2\nf1,0,4e-1\n", True),
        (b"feature_id,s0,s1\nf0,1.5,2\nf1,0,4e-1,\n", False),
        (b'feature_id,s0,s1\n"f,0",1.5,2\nf1,0,4e-1\n', False),
        (b"feature_id,s0,s1\nf0\t1.5,2,3\nf1,0,4e-1\n", True),
    ])
    def test_csv(self, tmp_path, monkeypatch, text, compiled):
        path = tmp_path / "m.csv"
        path.write_bytes(text)
        assert_paths_agree(path, monkeypatch, compiled)

    @pytest.mark.parametrize("block", [ingest._BLOCK, 256, 64])
    def test_rows_split_across_blocks(self, tmp_path, monkeypatch, block):
        rng = np.random.default_rng(5)
        formats = ("{!r}", "{:.3e}", "{:.17g}", "{:.0f}", "0", "{:.40f}")
        lines = [b"feature_id\ts0\ts1\ts2"]
        size = 0
        while size <= ingest._BLOCK + 4096:
            row = [formats[int(rng.integers(len(formats)))].format(v) for v in rng.lognormal(0, 6, 3).tolist()]
            ending = b"\r" if rng.random() < 0.1 else b""
            fid = f"f{len(lines)}" if rng.random() < 0.9 else f"\u00e9{len(lines)}"
            lines.append(("\t".join([fid, *row])).encode() + ending)
            size += len(lines[-1]) + 1
        path = tmp_path / "m.tsv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert path.stat().st_size > ingest._BLOCK
        monkeypatch.setattr(ingest, "_BLOCK", block)
        assert_paths_agree(path, monkeypatch, True)

    @pytest.mark.parametrize("delim, name", [("\t", "m.tsv"), (",", "m.csv")])
    def test_shortest_rows_fill_the_buffer_and_a_long_row_grows_the_block(self, tmp_path, monkeypatch, delim, name):
        # the shortest row, an empty id and a one-digit number per field, is
        # 2 * width + 1 = 5 bytes; every block after the first starts at a row
        # and holds a multiple of 5 bytes, so its rows fill the buffer exactly
        block, shortest = 60, delim.join(["", "1", "2"]).encode() + b"\n"
        long_row = delim.join(["x" * (3 * block), "3", "4"]).encode() + b"\n"
        head = delim.join(["feature_id", "s0", "s1"]).encode() + b"\n"
        path = tmp_path / name
        path.write_bytes(head + shortest * 50 + long_row + shortest * 100)
        monkeypatch.setattr(ingest, "_BLOCK", block)
        assert len(shortest) == 5
        parsed = ingest._parse_compiled(path, delim)
        assert parsed is not None
        sample_ids, feature_ids, values = parsed
        assert feature_ids == [""] * 50 + ["x" * (3 * block)] + [""] * 100
        assert values.tolist() == [[1.0, 2.0]] * 50 + [[3.0, 4.0]] + [[1.0, 2.0]] * 100
        assert_paths_agree(path, monkeypatch, True)


class TestLoadMeta:
    def test_valid(self, tmp_path):
        meta = load_meta(write(tmp_path / "meta.tsv", META_TSV))
        assert meta.treated_ids() == ("a1", "a2")
        assert meta.control_for("a2") == "c2"

    def test_dangling_control(self, tmp_path):
        bad = META_TSV.replace("a1\ttreated\ta\t1\tc1", "a1\ttreated\ta\t1\tmissing")
        with pytest.raises(ValidationError, match="missing"):
            load_meta(write(tmp_path / "meta.tsv", bad))

    def test_duplicate_pair(self, tmp_path):
        bad = META_TSV + "a1b\ttreated\ta\t1\tc1\n"
        with pytest.raises(ValidationError, match="compound, replicate"):
            load_meta(write(tmp_path / "meta.tsv", bad))

    def test_unknown_role(self, tmp_path):
        bad = META_TSV.replace("treated\ta\t1", "exposed\ta\t1")
        with pytest.raises(ValidationError, match="role"):
            load_meta(write(tmp_path / "meta.tsv", bad))

    def test_line_numbers_count_blank_lines(self, tmp_path):
        bad = "\n" + META_TSV.replace("c2\tcontrol\t\t2", "\nc2\tcontrol\t\tx")
        with pytest.raises(ValidationError, match=r"meta\.tsv:5: replicate must be an integer"):
            load_meta(write(tmp_path / "meta.tsv", bad))

    def test_column_order_free(self, tmp_path):
        text = (
            "role\tsample_id\tcontrol_id\treplicate\tcompound\n"
            "control\tc1\t\t1\t\n"
            "control\tc2\t\t2\t\n"
            "treated\ta1\tc1\t1\ta\n"
            "treated\ta2\tc2\t2\ta\n"
        )
        meta = load_meta(write(tmp_path / "meta.tsv", text))
        assert meta.record("a1").compound == "a"


class TestLoadWeights:
    def test_entries(self, tmp_path):
        text = "sample_a\tsample_b\tweight\na1\ta2\t-1\n"
        assert load_weights(write(tmp_path / "w.tsv", text)) == [("a1", "a2", -1)]

    def test_bad_weight(self, tmp_path):
        text = "sample_a\tsample_b\tweight\na1\ta2\t5\n"
        with pytest.raises(ValidationError, match="weight"):
            load_weights(write(tmp_path / "w.tsv", text))

    def test_line_numbers_count_blank_lines(self, tmp_path):
        text = "sample_a\tsample_b\tweight\n\na1\ta2\t1\n \t\na1\ta3\t2\n"
        with pytest.raises(ValidationError, match=r"w\.tsv:5: weight must be"):
            load_weights(write(tmp_path / "w.tsv", text))


class TestReplacementValue:
    def test_picks_smallest_positive(self):
        assert replacement_value([0.0, 0.5, 2.0]) == 0.5

    def test_defined_without_zeros(self):
        assert replacement_value([3.0, 1.0, 7.0]) == 1.0

    def test_all_zero_errors(self):
        with pytest.raises(ValidationError):
            replacement_value([0.0, 0.0, 0.0])


class TestComputeRatios:
    def test_simple_log2(self):
        # one compound, two replicates, no zeros
        matrix = make_matrix(
            [[1.0, 4.0, 2.0, 1.0], [2.0, 2.0, 4.0, 1.0]],
            sample_ids=["control_1", "control_2", "cmpA_1", "cmpA_2"],
        )
        meta = make_meta(1)
        rm = compute_ratios(matrix, meta)
        assert rm.treated_ids == ("cmpA_1", "cmpA_2")
        assert rm.ratios[0, 0] == pytest.approx(1.0)   # log2(2/1)
        assert rm.ratios[0, 1] == pytest.approx(-2.0)  # log2(1/4)

    def test_zero_replacement_worked_example(self):
        # control column [0, 0.5, 2]; treated value 2 against the zero entry
        # uses the column's smallest positive value: log2(2/0.5) = 2 exactly
        matrix = make_matrix(
            [[0.0, 1.0, 2.0, 1.0], [0.5, 1.0, 1.0, 1.0], [2.0, 1.0, 1.0, 1.0]],
            sample_ids=["control_1", "control_2", "cmpA_1", "cmpA_2"],
        )
        meta = make_meta(1)
        report = IngestReport()
        rm = compute_ratios(matrix, meta, report)
        assert rm.ratios[0, 0] == 2.0
        assert np.all(np.isfinite(rm.ratios))
        assert ("control_1", 0.5, 1) in report.zero_replacements

    def test_identical_columns_give_zero_ratios(self):
        matrix = make_matrix(
            [[1.0, 3.0, 1.0, 3.0], [5.0, 7.0, 5.0, 7.0]],
            sample_ids=["control_1", "control_2", "cmpA_1", "cmpA_2"],
        )
        rm = compute_ratios(matrix, make_meta(1))
        assert np.all(rm.ratios == 0.0)

    def test_scale_invariance_with_zeros(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0, 4, size=(6, 4))
        values[values < 0.8] = 0.0
        values[0] = [1.0, 1.0, 2.0, 2.0]  # keep every column partly positive
        ids = ["control_1", "control_2", "cmpA_1", "cmpA_2"]
        base = make_matrix(values, sample_ids=ids)
        scaled_values = values.copy()
        scaled_values[:, [0, 2]] *= 7.5  # control_1 and its treated column together
        scaled = make_matrix(scaled_values, sample_ids=ids)
        meta = make_meta(1)
        np.testing.assert_allclose(
            compute_ratios(base, meta).ratios,
            compute_ratios(scaled, meta).ratios,
            atol=1e-12,
        )

    def test_id_mismatch(self):
        matrix = make_matrix([[1.0, 1.0], [1.0, 1.0]], sample_ids=["x", "y"])
        with pytest.raises(ValidationError, match="sample ids differ"):
            compute_ratios(matrix, make_meta(1))

    def test_all_zero_column_errors(self):
        matrix = make_matrix(
            [[0.0, 1.0, 2.0, 1.0], [0.0, 1.0, 1.0, 1.0]],
            sample_ids=["control_1", "control_2", "cmpA_1", "cmpA_2"],
        )
        with pytest.raises(ValidationError, match="entirely zero"):
            compute_ratios(matrix, make_meta(1))

    @pytest.mark.parametrize("zero_columns, named", [
        (["cmpA_1", "control_1"], "control_1"),  # a control before its treated sample
        (["cmpB_1", "cmpA_2"], "cmpA_2"),  # treated samples in matrix order
        (["control_2", "cmpA_1"], "cmpA_1"),  # cmpA_1 comes first, with control_1
    ])
    def test_all_zero_error_names_the_first_column_met(self, zero_columns, named):
        ids = ["control_1", "control_2", "cmpA_1", "cmpA_2", "cmpB_1", "cmpB_2"]
        values = np.ones((3, len(ids)))
        values[:, [ids.index(s) for s in zero_columns]] = 0.0
        with pytest.raises(ValidationError, match=f"column '{named}' is entirely zero"):
            compute_ratios(make_matrix(values, sample_ids=ids), make_meta(2))

    def test_matches_the_per_column_reference(self):
        rng = np.random.default_rng(5)
        ids = ["cmpA_1", "control_1", "cmpB_2", "control_3", "control_2", "cmpA_2", "cmpB_1", "cmpC_1", "cmpC_2"]
        values = rng.lognormal(0, 2, size=(50, len(ids)))
        # cmpB_1's control: levels under 2, so a subnormal over them stays above 0
        values[:, ids.index("control_1")] = rng.uniform(0.6, 1.4, size=50)
        values[rng.random(values.shape) < 0.2] = 0.0
        values[:, ids.index("cmpC_2")] = rng.lognormal(0, 2, size=50)  # a column without zeros
        values[:, ids.index("control_3")] = 0.0  # all zero, but no treated sample uses it
        values[:, ids.index("cmpB_1")] = 0.0
        values[7, ids.index("cmpB_1")] = 5e-324  # the only positive value is subnormal
        matrix = make_matrix(values, sample_ids=ids)
        meta = SampleMeta(make_meta(3).samples + (SampleRecord("control_3", "control", "", 3, ""),))
        report = IngestReport()
        rm = compute_ratios(matrix, meta, report)

        def column(sample_id):
            return values[:, ids.index(sample_id)]

        def resolved(sample_id):
            col = column(sample_id)
            return np.where(col > 0, col, col[col > 0].min())

        treated = [s for s in ids if s.startswith("cmp")]
        want = np.column_stack([np.log2(resolved(t) / resolved(meta.control_for(t))) for t in treated])
        assert rm.treated_ids == tuple(treated)
        assert rm.ratios.tobytes() == want.tobytes()
        assert report.zero_replacements == [
            (s, column(s)[column(s) > 0].min(), int(np.count_nonzero(column(s) == 0)))
            for s in sorted(ids) if s not in ("cmpC_2", "control_3")
        ]
        assert ("cmpB_1", 5e-324, 49) in report.zero_replacements


class TestRoundTrip:
    def test_matrix_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.lognormal(0, 2, size=(9, 4))
        values[rng.random(values.shape) < 0.2] = 0.0
        values[0] = 1.0  # no all-zero row
        m = make_matrix(values)
        path = tmp_path / "m.tsv"
        write_matrix(m, path)
        loaded, _ = load_matrix(path)
        assert loaded.feature_ids == m.feature_ids
        np.testing.assert_allclose(loaded.values, m.values, rtol=1e-12)

    def test_meta_round_trip(self, tmp_path):
        meta = make_meta(2)
        path = tmp_path / "meta.tsv"
        write_meta(meta, path)
        assert load_meta(path) == meta

    def test_weights_round_trip(self, tmp_path):
        w = PairWeights.from_entries(("a", "b", "c"), [("a", "c", -1)], default=1)
        path = tmp_path / "w.tsv"
        write_weights(w, path)
        entries = load_weights(path)
        rebuilt = PairWeights.from_entries(("a", "b", "c"), entries, default=0)
        assert rebuilt == w
