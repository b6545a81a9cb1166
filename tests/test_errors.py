import pickle
from pathlib import Path

import pytest

from kgel import errors

LINE_ERRORS = sorted(
    (value for value in vars(errors).values() if isinstance(value, type) and issubclass(value, errors.LineError)),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("cls", LINE_ERRORS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize(
    "path, line_no", [("m.tsv", 4), (Path("kg") / "triples.tsv", 12), (None, None)],
    ids=["str_path", "path", "no_location"],
)
def test_line_error_survives_pickling(cls, path, line_no):
    error = cls(path, line_no, "bad count")
    again = pickle.loads(pickle.dumps(error))
    assert type(again) is cls
    assert str(again) == str(error)
    assert (again.path, again.line_no, again.reason) == (error.path, line_no, "bad count")
    assert again.path == (None if path is None else str(path))
