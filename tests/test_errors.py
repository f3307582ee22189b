import pytest

from qseed.errors import ParseError, UsageError, read_lines


@pytest.mark.parametrize(
    "data, lines",
    [
        (b"", []),
        (b"\n", [""]),
        (b"a", ["a"]),
        (b"a\nb\n", ["a", "b"]),
        (b"a\r\nb\rc\n\n", ["a", "b", "c", ""]),
        (b"\xef\xbb\xbfa\nb", ["a", "b"]),
        (b"\xef\xbb\xbf", []),
        (b"a\n\xef\xbb\xbfb\n", ["a", "\ufeffb"]),  # only a leading mark is dropped
        (b"a\x0bb\x1cc\xc2\x85d\xe2\x80\xa8e\n", ["a\x0bb\x1cc\x85d\u2028e"]),  # not line ends here
    ],
)
def test_read_lines(tmp_path, data, lines):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    assert read_lines(str(path), ParseError) == lines


@pytest.mark.parametrize(
    "data, line, reason, offset",
    [
        (b"a\r\nb\xffc\n", 2, "invalid start byte", 4),
        (b"\xef\xbb\xbfa\rb\r\xe9\n", 3, "invalid continuation byte", 7),
        (b"a\n\xef\xbb", 2, "unexpected end of data", 2),
    ],
)
def test_byte_not_utf8_names_its_line(tmp_path, data, line, reason, offset):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    with pytest.raises(UsageError) as got:
        read_lines(str(path), UsageError)
    assert str(got.value) == f"{path}:{line}: not UTF-8 text ({reason} at byte {offset})"


def test_file_that_cannot_be_opened_names_its_path(tmp_path):
    with pytest.raises(ParseError) as got:
        read_lines(str(tmp_path / "none.txt"), ParseError)
    assert str(got.value) == f"{tmp_path / 'none.txt'}: No such file or directory"
    with pytest.raises(UsageError) as got:
        read_lines(str(tmp_path), UsageError)
    assert str(got.value) == f"{tmp_path}: Is a directory"
