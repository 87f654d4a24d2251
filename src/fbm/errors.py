"""Error taxonomy shared by the library and the CLI, and the openers of a user's file.

Exit codes: 1 config, 2 data, 3 numeric. The CLI maps exceptions to exit
codes through the `exit_code` attribute, so library code raises these
instead of bare ValueError whenever the failure is user-facing.
"""

import contextlib
import csv
import errno
import os
import stat


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


def refuse_directory(path):
    """The `cannot write` line `writing` gives when `path` is a directory."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")


@contextlib.contextmanager
def writing(path, binary=False):
    """A new file beside the user's file `path`, for bytes or UTF-8 text, that replaces it when
    the block ends, keeping its mode and any symlink to it. A directory is refused before the
    block runs; if the block fails, a previous file stays, and an OSError is one ConfigError line."""
    refuse_directory(path)
    real = os.path.realpath(path)  # a symlink stays and its target is replaced
    tmp = f"{real}.{os.urandom(4).hex()}.tmp"
    try:
        f = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
        try:
            if os.path.exists(real):  # keep the mode of the file being replaced
                os.chmod(tmp, stat.S_IMODE(os.stat(real).st_mode))
            with f:
                yield f
            os.replace(tmp, real)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror or e}") from None
