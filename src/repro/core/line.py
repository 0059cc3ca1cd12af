"""Segmented config lines: the unit every anonymization rule operates on.

A :class:`SegmentedLine` is a config line split into *frozen* and *live*
segments.  When a context rule rewrites part of a line (say, an ASN inside
``router bgp 1111``) the replacement is marked frozen so later rules and
the final token-hashing pass never touch it again.  This is what makes the
rule pipeline order-safe: an anonymized IP address can never be
re-interpreted as something else by a later rule, and a hash digest can
never be re-hashed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, List, Match, Optional, Pattern, Sequence, Tuple

#: A replacement piece: (text, frozen).
Piece = Tuple[str, bool]
#: Rule handlers return the pieces replacing the match, or None to decline.
Handler = Callable[[Match], Optional[Sequence[Piece]]]


@dataclass
class Segment:
    # Written out rather than ``dataclass(slots=True)``, which needs 3.10.
    __slots__ = ("text", "frozen")

    text: str
    frozen: bool


class SegmentedLine:
    """One config line as a sequence of frozen/live segments."""

    def __init__(self, text: str):
        self.segments: List[Segment] = [Segment(text, False)] if text else []

    def render(self) -> str:
        """Reassemble the line."""
        return "".join(segment.text for segment in self.segments)

    def live_text(self) -> str:
        """Concatenation of only the not-yet-frozen text (for diagnostics)."""
        return "".join(s.text for s in self.segments if not s.frozen)

    def apply_rule(self, pattern: Pattern, handler: Handler) -> int:
        """Run one context rule over every live segment.

        For each non-overlapping match of *pattern* inside a live segment,
        *handler* is called with the match object.  It returns the pieces
        that replace the matched span — each piece tagged frozen or live —
        or ``None`` to leave that particular match untouched.

        Returns the number of matches rewritten.
        """
        new_segments: List[Segment] = []
        rewritten = 0
        for segment in self.segments:
            text = segment.text
            if segment.frozen or not text:
                new_segments.append(segment)
                continue
            cursor = 0
            segment_rewrites = 0
            for match in pattern.finditer(text):
                pieces = handler(match)
                if pieces is None:
                    continue
                if match.start() > cursor:
                    new_segments.append(Segment(text[cursor : match.start()], False))
                for piece_text, frozen in pieces:
                    if piece_text:
                        new_segments.append(Segment(piece_text, frozen))
                cursor = match.end()
                segment_rewrites += 1
            if not segment_rewrites:
                new_segments.append(segment)
            elif cursor < len(text):
                new_segments.append(Segment(text[cursor:], False))
            rewritten += segment_rewrites
        if rewritten:
            # Most calls rewrite nothing and keep the segment list as is.
            self.segments = new_segments
        return rewritten

    def map_live_tokens(self, mapper: Callable[[str], str]) -> None:
        """Apply *mapper* to every whitespace-delimited word in live segments.

        Whitespace is preserved exactly; frozen segments pass through.  This
        is the hook for the final pass-list/hashing pass.
        """
        for segment in self.segments:
            if segment.frozen or not segment.text:
                continue
            parts = re.split(r"(\s+)", segment.text)
            segment.text = "".join(
                part if part.isspace() or not part else mapper(part) for part in parts
            )

    def map_live_text(self, text_mapper: Callable[[str], str]) -> None:
        """Like :meth:`map_live_tokens`, but hands each live segment's
        whole text to *text_mapper* (which must preserve whitespace).

        Lets :meth:`repro.core.tokens.TokenAnonymizer.anonymize_text`
        memoize at segment granularity — the inter-match residue of
        rewritten lines ("  neighbor ", " remote-as ") repeats heavily.
        """
        for segment in self.segments:
            if segment.frozen or not segment.text:
                continue
            segment.text = text_mapper(segment.text)
