"""Error taxonomy shared by the library and the CLI, and the opener of a user's file.

Exit codes: 1 config, 2 data, 3 numeric. The CLI maps exceptions to exit
codes through the `exit_code` attribute, so library code raises these
instead of bare ValueError whenever the failure is user-facing.
"""

import contextlib
import csv


class FbmError(Exception):
    exit_code = 1


class ConfigError(FbmError):
    """Bad model/run configuration: unknown variant, wrong dims, bad flags."""

    exit_code = 1


class DataError(FbmError):
    """Malformed input data: unparseable CSV, bad split, constant channel."""

    exit_code = 2


class NumericError(FbmError):
    """Non-finite values where finite ones are required (NaN loss, etc.)."""

    exit_code = 3


class CheckpointError(ConfigError):
    """Unreadable or mismatched checkpoint file."""


@contextlib.contextmanager
def reading(path, error, what, binary=False):
    """A user's file opened to read as bytes, or as UTF-8 text with an optional byte-order mark;
    an OSError, UnicodeError or csv.Error in the block becomes one line of `error`."""
    try:
        with open(path, "rb") if binary else open(path, encoding="utf-8-sig", newline="") as f:
            yield f
    except (OSError, UnicodeError, csv.Error) as e:
        raise error(f"cannot read {what} {path}: {getattr(e, 'strerror', None) or e}") from None
