"""Shared exception base for the package.

Concrete error types live next to the operations that raise them; they all
derive from :class:`TalkmetricsError` so callers (and the CLI) can catch
package failures with one handler.
"""


class TalkmetricsError(Exception):
    """Base class for every error raised by talkmetrics."""


def describe(exc: BaseException) -> str:
    """A one-line account of a failure for reports and console lines.

    Package and filesystem errors carry their own message; anything else
    is a fault the message alone would not identify, so its type is named.
    """
    if isinstance(exc, (TalkmetricsError, OSError)):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"
