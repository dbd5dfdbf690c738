"""Persistent output streams — the tracer's ``OutChan``/``Stream`` algebra.

The paper treats the output channel "as an abstract datatype with
operations ``addStream`` to add a new string to a given stream, and
``initStream``" (Figure 7).  Monitoring functions are pure, so the stream
is a persistent value living inside the monitor state: ``add`` returns a
*new* stream sharing the old one.  Internally it is a reversed linked list
(O(1) add); rendering reverses once.
"""

from __future__ import annotations

from typing import Iterator, List, Optional


class Stream:
    """An immutable output stream of strings."""

    __slots__ = ("_text", "_rest", "_length")

    def __init__(
        self, text: Optional[str] = None, rest: Optional["Stream"] = None
    ) -> None:
        self._text = text
        self._rest = rest
        self._length = 0 if rest is None else rest._length + 1

    def add(self, text: str) -> "Stream":
        """``addStream``: a new stream with ``text`` appended."""
        return Stream(text, self)

    def __len__(self) -> int:
        return self._length

    def chunks(self) -> List[str]:
        """All added chunks, oldest first."""
        out: List[str] = []
        node: Optional[Stream] = self
        while node is not None and node._rest is not None:
            out.append(node._text)  # type: ignore[arg-type]
            node = node._rest
        out.reverse()
        return out

    def render(self) -> str:
        """The stream's contents as one string."""
        return "".join(self.chunks())

    def lines(self) -> List[str]:
        """The rendered contents split into lines (no trailing empty line)."""
        text = self.render()
        if not text:
            return []
        return text.rstrip("\n").split("\n")

    def __iter__(self) -> Iterator[str]:
        return iter(self.chunks())

    def __repr__(self) -> str:
        return f"<stream {len(self)} chunks>"

    def __reduce__(self):
        # Flat, so pickling a long stream never recurses once per chunk.
        return (_stream_of, (self.chunks(),))


def _stream_of(chunks: List[str]) -> Stream:
    """Rebuild a pickled :class:`Stream` from its chunks, oldest first."""
    stream = Stream()
    for text in chunks:
        stream = Stream(text, stream)
    return stream


#: ``initStream``.
def init_stream() -> Stream:
    return Stream()
