"""Type inference follows the paper's first-10-values rule."""

from hypothesis import given, strategies as st

from repro.table.infer import infer_column_type, numeric_view, parse_date, to_float
from repro.table.schema import ColumnType


def test_integer_column():
    assert infer_column_type(["1", "22", "-3"]) == ColumnType.INTEGER


def test_float_column():
    assert infer_column_type(["1.5", "2.25", "1e3"]) == ColumnType.FLOAT


def test_integers_are_valid_floats_but_typed_integer():
    assert infer_column_type(["1", "2"]) == ColumnType.INTEGER


def test_date_column():
    assert infer_column_type(["2020-01-01", "2021-12-31"]) == ColumnType.DATE


def test_mixed_defaults_to_string():
    assert infer_column_type(["2020-01-01", "hello"]) == ColumnType.STRING


def test_only_first_ten_values_matter():
    values = ["1"] * 10 + ["not a number"]
    assert infer_column_type(values) == ColumnType.INTEGER


def test_empty_and_null_only_is_string():
    assert infer_column_type([]) == ColumnType.STRING
    assert infer_column_type(["", "nan"]) == ColumnType.STRING


def test_bare_year_column_is_integer_not_date():
    # Years parse as dates value-wise but columns of ints stay integers.
    assert infer_column_type(["1990", "2001"]) == ColumnType.INTEGER
    assert parse_date("1990") is not None


def test_parse_date_formats():
    assert parse_date("2020-06-15") is not None
    assert parse_date("15/06/2020") is not None
    assert parse_date("Jun 15, 2020") is not None
    assert parse_date("not a date") is None
    assert parse_date("123456") is None  # 6 digits: not a year


def test_parse_date_ordering():
    assert parse_date("2021-01-01") > parse_date("2020-01-01")


def test_to_float():
    assert to_float("1,234.5") == 1234.5
    assert to_float("-2e3") == -2000.0
    assert to_float("abc") is None
    assert to_float("") is None


def test_numeric_view_dates_become_timestamps():
    stamps = numeric_view(["2020-01-01", "bad", "2021-01-01"], ColumnType.DATE)
    assert len(stamps) == 2
    assert stamps[1] > stamps[0]


def test_numeric_view_drops_unparseable():
    assert numeric_view(["1", "x", "3"], ColumnType.INTEGER) == [1.0, 3.0]


def test_numbers_beyond_float64_are_unparseable():
    assert to_float("1e400") is None
    assert to_float("-1e400") is None
    assert to_float("1e308") == 1e308
    cells = ["1.5", "2", "1e400", "3", "nan", ""]
    assert numeric_view(cells, ColumnType.FLOAT) == [1.5, 2.0, 3.0]
    assert numeric_view(["2020-01-01", "1e999"], ColumnType.DATE) == [
        numeric_view(["2020-01-01"], ColumnType.DATE)[0]
    ]


@given(st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=1, max_size=10))
def test_integer_lists_always_infer_integer(values):
    assert infer_column_type([str(v) for v in values]) == ColumnType.INTEGER


# --------------------------------------------------------------------- #
# parse_date is gated by a shape regex so non-dates never reach strptime.
# The gate must change no answer: compare with the ungated loop.
# --------------------------------------------------------------------- #
def _ungated_parse_date(cell):
    """`parse_date` as it was before the gate: try every format."""
    import datetime as dt

    from repro.table.infer import _DATE_FORMATS, _INT_RE

    text = cell.strip()
    if not text:
        return None
    if _INT_RE.match(text):
        year = int(text)
        if 1500 <= year <= 2200 and len(text) == 4:
            return dt.datetime(year, 1, 1, tzinfo=dt.timezone.utc).timestamp()
        return None
    for fmt in _DATE_FORMATS:
        try:
            parsed = dt.datetime.strptime(text, fmt)
        except ValueError:
            continue
        return parsed.replace(tzinfo=dt.timezone.utc).timestamp()
    return None


def _ungated_infer(values):
    from repro.table.infer import _FLOAT_RE, _INT_RE, TYPE_INFERENCE_SAMPLE
    from repro.table.schema import is_null

    sample = [v for v in values if not is_null(v)][:TYPE_INFERENCE_SAMPLE]
    if not sample:
        return ColumnType.STRING

    def dated(v):
        return not _INT_RE.match(v.strip()) and _ungated_parse_date(v) is not None

    if all(dated(v) for v in sample):
        return ColumnType.DATE
    if all(_INT_RE.match(v.strip()) for v in sample):
        return ColumnType.INTEGER
    if all(_FLOAT_RE.match(v.strip().replace(",", "")) for v in sample):
        return ColumnType.FLOAT
    return ColumnType.STRING


def test_gate_admits_every_supported_format():
    import datetime as dt

    from repro.table.infer import _DATE_FORMATS

    moments = [
        dt.datetime(2020, 6, 15, 13, 45, 59),
        dt.datetime(1999, 1, 2, 3, 4, 5),  # single-digit fields
        dt.datetime(2031, 12, 31, 0, 0, 0),
    ]
    for fmt in _DATE_FORMATS:
        for moment in moments:
            text = moment.strftime(fmt)
            assert parse_date(text) is not None, (fmt, text)
            assert parse_date(text) == _ungated_parse_date(text), (fmt, text)


def test_gate_keeps_strptime_leniency():
    # Unpadded fields, blank-padded days, any-case month names and
    # separators, runs of blanks: strptime takes them all, so must the gate.
    lenient = [
        "2020-6-5", "5/6/2020", "1/ 5/2020", "2020-01-05t10:00:00",
        "2020-01-05   1:2:3", "5  jun  2020", "JUN 5, 2020", "jun  5,  2020",
        " 2020-06-15 ", "5/6/20 1:02:03",
    ]
    for text in lenient:
        assert _ungated_parse_date(text) is not None, text
        assert parse_date(text) == _ungated_parse_date(text), text


_DATEISH = st.one_of(
    st.text(max_size=30),
    st.text(alphabet="0123456789-/:, TtJjanuUNfebMar.", max_size=24),
    st.builds(
        lambda y, m, d, sep, tail: f"{y}{sep}{m}{sep}{d}{tail}",
        st.integers(0, 12000), st.integers(0, 14), st.integers(0, 33),
        st.sampled_from(["-", "/", " ", "- ", ":"]),
        st.sampled_from(["", " 10:20:30", "T1:2:3", " x", "T", " 25:00:00"]),
    ),
)


@given(_DATEISH)
def test_gated_parse_date_agrees_with_ungated(cell):
    assert parse_date(cell) == _ungated_parse_date(cell)


@given(st.lists(_DATEISH, max_size=12))
def test_gated_inference_agrees_with_ungated(values):
    assert infer_column_type(values) == _ungated_infer(values)
