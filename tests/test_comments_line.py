"""Tests for comment stripping (R3-R5) and the SegmentedLine machinery."""

import re

import pytest

from repro.core.comments import CommentStripper
from repro.core.line import Segment, SegmentedLine


class TestCommentStripper:
    def _strip(self, text):
        stripper = CommentStripper()
        return stripper.strip(text.splitlines())

    def test_description_lines_removed(self):
        lines, stats = self._strip("interface Ethernet0\n description secret site\n ip address 1.1.1.1 255.255.255.0")
        assert all("description" not in line for line in lines)
        assert stats.comment_words == 2
        assert stats.comment_lines == 1

    def test_remark_lines_removed(self):
        lines, stats = self._strip("access-list 10 remark allow foo corp\naccess-list 10 permit any")
        assert len(lines) == 1
        assert "remark" not in lines[0]

    def test_bang_comment_text_removed_separator_kept(self):
        lines, stats = self._strip("! Core router for LAX\n!\ninterface Ethernet0")
        assert lines[0] == "!"
        assert lines[1] == "!"
        assert stats.comment_words == 4
        assert stats.comment_lines == 1  # the bare `!` is not a comment

    def test_multiline_banner_removed(self):
        text = "banner motd ^C\nWelcome to FooCorp\nGo away\n^C\nhostname r1"
        lines, stats = self._strip(text)
        assert lines == ["hostname r1"]
        assert stats.banners == 1
        assert stats.comment_words >= 5

    def test_single_line_banner(self):
        lines, stats = self._strip("banner motd #Unauthorized access prohibited#\nhostname r1")
        assert lines == ["hostname r1"]
        assert stats.banners == 1

    def test_hash_delimiter_banner(self):
        text = "banner login #\nproperty of initech\n#\nhostname r1"
        lines, stats = self._strip(text)
        assert lines == ["hostname r1"]

    def test_unterminated_banner_flagged(self):
        text = "banner motd ^C\nno closing delimiter here"
        lines, stats = self._strip(text)
        assert lines == []
        assert stats.flagged

    def test_total_words_counts_banner_body(self):
        text = "banner motd ^C\none two three\n^C"
        _, stats = self._strip(text)
        assert stats.total_words >= 6  # 3 banner-line words + 3 body words

    def test_word_fraction_accounting(self):
        text = "interface Ethernet0\n description a b c d\n ip address 1.1.1.1 255.255.255.0"
        _, stats = self._strip(text)
        assert stats.comment_words == 4
        assert stats.total_words == 2 + 5 + 4


class TestSegmentedLine:
    def test_render_round_trip(self):
        line = SegmentedLine(" ip address 1.1.1.1 255.255.255.0")
        assert line.render() == " ip address 1.1.1.1 255.255.255.0"

    def test_apply_rule_freezes_replacement(self):
        line = SegmentedLine("router bgp 1111")
        pattern = re.compile(r"\d+")
        hits = line.apply_rule(pattern, lambda m: [("9999", True)])
        assert hits == 1
        assert line.render() == "router bgp 9999"
        # A second rule matching digits must not touch the frozen 9999.
        hits2 = line.apply_rule(pattern, lambda m: [("0000", True)])
        assert hits2 == 0
        assert line.render() == "router bgp 9999"

    def test_handler_can_decline(self):
        line = SegmentedLine("value 42 and 43")
        pattern = re.compile(r"\d+")
        hits = line.apply_rule(
            pattern, lambda m: [("XX", True)] if m.group(0) == "43" else None
        )
        assert hits == 1
        assert line.render() == "value 42 and XX"

    def test_multiple_matches_one_segment(self):
        line = SegmentedLine("1 2 3")
        hits = line.apply_rule(re.compile(r"\d"), lambda m: [("N", True)])
        assert hits == 3
        assert line.render() == "N N N"

    def test_live_pieces_remain_rewritable(self):
        line = SegmentedLine("neighbor peerX remote-as 701")
        pattern = re.compile(r"remote-as (\d+)")
        line.apply_rule(
            pattern, lambda m: [("remote-as ", False), ("N", True)]
        )
        # 'remote-as ' is still live, so another rule could see it.
        assert "remote-as" in line.live_text()
        assert "N" not in line.live_text()

    def test_map_live_tokens_preserves_whitespace(self):
        line = SegmentedLine("  foo   bar ")
        line.map_live_tokens(str.upper)
        assert line.render() == "  FOO   BAR "

    def test_map_live_tokens_skips_frozen(self):
        line = SegmentedLine("keep SECRET")
        line.apply_rule(re.compile("SECRET"), lambda m: [("hidden", True)])
        line.map_live_tokens(str.upper)
        assert line.render() == "KEEP hidden"

    def test_empty_line(self):
        line = SegmentedLine("")
        line.map_live_tokens(str.upper)
        assert line.render() == ""


class TestApplyRuleSegments:
    """``apply_rule`` keeps the segment list and objects unless a match
    is rewritten, and only rebuilds the segments that changed."""

    def _line(self):
        line = SegmentedLine("router bgp 1111")
        line.apply_rule(re.compile(r"bgp"), lambda m: [("bgp", True)])
        return line  # live "router ", frozen "bgp", live " 1111"

    def test_no_match_keeps_segments(self):
        line = self._line()
        segments, objects = line.segments, list(line.segments)
        assert line.apply_rule(re.compile(r"neighbor"), lambda m: [("x", True)]) == 0
        assert line.segments is segments
        assert all(a is b for a, b in zip(line.segments, objects))
        assert line.render() == "router bgp 1111"

    def test_every_match_declined_keeps_segments(self):
        line = self._line()
        segments, objects = line.segments, list(line.segments)
        seen = []
        hits = line.apply_rule(
            re.compile(r"\w+"), lambda m: seen.append(m.group(0))
        )
        assert hits == 0 and seen == ["router", "1111"]
        assert line.segments is segments
        assert all(a is b for a, b in zip(line.segments, objects))
        assert line.render() == "router bgp 1111"

    def test_partial_rewrite_rebuilds_only_changed_segments(self):
        line = SegmentedLine("value 42 and 43")
        line.apply_rule(re.compile(r"and"), lambda m: [("and", True)])
        head, frozen, tail = line.segments
        hits = line.apply_rule(
            re.compile(r"\d+"),
            lambda m: [("XX", True)] if m.group(0) == "43" else None,
        )
        assert hits == 1
        assert line.render() == "value 42 and XX"
        assert [(s.text, s.frozen) for s in line.segments] == [
            ("value 42 ", False), ("and", True), (" ", False), ("XX", True),
        ]
        # The segments without a rewritten match are the same objects.
        assert line.segments[0] is head and line.segments[1] is frozen
        assert all(segment is not tail for segment in line.segments)

    def test_segment_has_slots(self):
        assert not hasattr(Segment("x", False), "__dict__")
