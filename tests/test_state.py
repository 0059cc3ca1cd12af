"""Tests for mapping-state persistence (longitudinal consistency)."""

import json

import pytest

from repro.core import Anonymizer, AnonymizerConfig
from repro.core.state import (
    STATE_FORMAT_VERSION,
    StateCursor,
    StateError,
    apply_state_delta,
    export_state,
    import_state,
    load_state,
    save_state,
    state_delta_since,
)


class TestStateRoundTrip:
    def test_ip_mapping_consistent_across_sessions(self, tmp_path):
        first = Anonymizer(salt=b"owner")
        # Session 1 maps some addresses in an order that shapes the trie.
        mapped_day1 = {
            t: first.ip_map.map_address(t)
            for t in ("10.1.1.5", "10.1.1.0", "6.2.3.4")
        }
        path = tmp_path / "state.json"
        save_state(first, str(path))

        second = Anonymizer(salt=b"owner")
        load_state(second, str(path))
        for text, expected in mapped_day1.items():
            assert second.ip_map.map_address(text) == expected

    def test_new_addresses_after_restore_stay_prefix_consistent(self, tmp_path):
        first = Anonymizer(salt=b"owner")
        day1 = first.ip_map.map_address("10.1.1.1")
        path = tmp_path / "state.json"
        save_state(first, str(path))

        second = Anonymizer(salt=b"owner")
        load_state(second, str(path))
        day2 = second.ip_map.map_address("10.1.1.2")
        # same /30: mapped addresses must share 30 bits
        from repro.netutil import ip_to_int

        xor = ip_to_int(day1) ^ ip_to_int(day2)
        assert xor.bit_length() <= 2

    def test_rng_stream_continues(self, tmp_path):
        """Mapping unseen addresses after a restore must match what the
        original instance would have produced."""
        first = Anonymizer(salt=b"owner")
        first.ip_map.map_address("10.0.0.1")
        path = tmp_path / "state.json"
        save_state(first, str(path))

        second = Anonymizer(salt=b"owner")
        load_state(second, str(path))
        assert second.ip_map.map_address("99.1.2.3") == first.ip_map.map_address(
            "99.1.2.3"
        )

    def test_hash_cache_restored(self, tmp_path):
        first = Anonymizer(salt=b"owner")
        digest = first.hasher.hash_token("FOOCORP")
        path = tmp_path / "state.json"
        save_state(first, str(path))
        second = Anonymizer(salt=b"owner")
        load_state(second, str(path))
        assert second.hasher.hash_token("FOOCORP") == digest
        assert "FOOCORP" in second.hasher.hashed_inputs

    def test_seen_asns_restored(self, tmp_path):
        first = Anonymizer(salt=b"owner")
        first.anonymize_text("router bgp 701\n")
        path = tmp_path / "state.json"
        save_state(first, str(path))
        second = Anonymizer(salt=b"owner")
        load_state(second, str(path))
        assert 701 in second.report.seen_asns

    def test_full_config_longitudinal_consistency(self, tmp_path, figure1_text):
        first = Anonymizer(salt=b"owner")
        day1 = first.anonymize_text(figure1_text)
        save_state(first, str(tmp_path / "s.json"))
        second = Anonymizer(salt=b"owner")
        load_state(second, str(tmp_path / "s.json"))
        day2 = second.anonymize_text(figure1_text)
        assert day1 == day2


class TestStateValidation:
    def test_version_checked(self):
        anonymizer = Anonymizer(salt=b"o")
        state = export_state(anonymizer)
        state["format_version"] = 999
        with pytest.raises(ValueError):
            import_state(Anonymizer(salt=b"o"), state)

    def test_hash_length_checked(self):
        state = export_state(Anonymizer(salt=b"o"))
        other = Anonymizer(AnonymizerConfig(salt=b"o", hash_length=8))
        with pytest.raises(ValueError):
            import_state(other, state)

    def test_state_is_json_serializable(self):
        anonymizer = Anonymizer(salt=b"o")
        anonymizer.anonymize_text("interface Ethernet0\n ip address 6.1.1.1 255.0.0.0\n")
        text = json.dumps(export_state(anonymizer))
        assert json.loads(text)["format_version"] == STATE_FORMAT_VERSION

    def test_export_import_round_trip_is_lossless(self, tmp_path):
        first = Anonymizer(salt=b"rt")
        first.anonymize_text(
            "hostname r1.example.com\n"
            "router bgp 701\n"
            " neighbor 6.1.1.1 remote-as 1239\n"
        )
        path = tmp_path / "state.json"
        save_state(first, str(path))
        second = Anonymizer(salt=b"rt")
        load_state(second, str(path))
        assert export_state(second) == export_state(first)


class TestStateCorruption:
    """A bad state file must produce one clear :class:`StateError` and
    never a raw traceback or a half-restored anonymizer."""

    def _load(self, tmp_path, payload):
        path = tmp_path / "state.json"
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        else:
            path.write_text(payload)
        load_state(Anonymizer(salt=b"o"), str(path))
        return path

    def test_not_json_at_all(self, tmp_path):
        with pytest.raises(StateError, match="not valid JSON"):
            self._load(tmp_path, "this is not json {]")

    def test_truncated_json(self, tmp_path):
        whole = json.dumps(export_state(Anonymizer(salt=b"o")))
        with pytest.raises(StateError, match="corrupt or truncated"):
            self._load(tmp_path, whole[: len(whole) // 2])

    def test_json_but_not_an_object(self, tmp_path):
        with pytest.raises(StateError, match="JSON object"):
            self._load(tmp_path, "[1, 2, 3]")

    def test_wrong_format_version(self, tmp_path):
        state = export_state(Anonymizer(salt=b"o"))
        state["format_version"] = 999
        with pytest.raises(StateError, match="version"):
            self._load(tmp_path, json.dumps(state))

    def test_missing_required_key(self, tmp_path):
        state = export_state(Anonymizer(salt=b"o"))
        del state["ip_rng_state"]
        with pytest.raises(StateError, match="malformed"):
            self._load(tmp_path, json.dumps(state))

    def test_mangled_trie_keys(self, tmp_path):
        state = export_state(Anonymizer(salt=b"o"))
        state["ip_trie"] = {"not-a-depth-prefix-pair": 1}
        with pytest.raises(StateError, match="malformed"):
            self._load(tmp_path, json.dumps(state))

    def test_error_names_the_file(self, tmp_path):
        with pytest.raises(StateError) as excinfo:
            self._load(tmp_path, "garbage")
        assert "state.json" in str(excinfo.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(StateError, match="cannot read"):
            load_state(Anonymizer(salt=b"o"), str(tmp_path / "absent.json"))

    def test_malformed_state_leaves_anonymizer_untouched(self, tmp_path):
        good = export_state(Anonymizer(salt=b"o"))
        bad = dict(good)
        bad["ip_rng_state"] = "nope"
        anonymizer = Anonymizer(salt=b"o")
        baseline = Anonymizer(salt=b"o")
        with pytest.raises(StateError):
            import_state(anonymizer, bad)
        # Decode-before-mutate: the failed import changed nothing, so the
        # anonymizer still behaves exactly like a fresh instance.
        assert anonymizer.ip_map.map_address("10.1.2.3") == baseline.ip_map.map_address(
            "10.1.2.3"
        )
        assert export_state(anonymizer) == export_state(baseline)


class TestTrieReplacementInvalidates:
    """Swapping trie nodes in from outside must drop every memo the map
    derived from the old nodes (raw-map and text caches and the last-walk
    record); a stale one would silently mis-map."""

    ADDRESSES = ("10.1.1.5", "10.1.1.0", "10.1.2.9", "6.2.3.4", "6.2.3.0")
    NEIGHBORS = ("10.1.1.77", "10.1.9.1", "6.2.3.200")

    def _grown(self, order):
        anonymizer = Anonymizer(salt=b"swap")
        for text in order:
            anonymizer.ip_map.map_address(text)
        return anonymizer

    def test_import_state_into_warm_anonymizer(self):
        warm = self._grown(self.ADDRESSES)
        other = self._grown(reversed(self.ADDRESSES))
        assert any(
            warm.ip_map.map_address(t) != other.ip_map.map_address(t)
            for t in self.ADDRESSES
        )
        import_state(warm, export_state(other))
        for text in self.ADDRESSES + self.NEIGHBORS:
            assert warm.ip_map.map_address(text) == other.ip_map.map_address(text)

    def test_state_delta_into_warm_anonymizer(self):
        warm = self._grown(self.ADDRESSES)
        other = Anonymizer(salt=b"swap")
        cursor = StateCursor(other)
        for text in reversed(self.ADDRESSES):
            other.ip_map.map_address(text)
        apply_state_delta(warm, state_delta_since(other, cursor))
        # The delta overwrote every node both tries share, so the warm
        # anonymizer now maps exactly as the delta's source does.
        for text in self.ADDRESSES + self.NEIGHBORS:
            assert warm.ip_map.map_address(text) == other.ip_map.map_address(text)

    def test_no_bare_trie_replacement_in_src(self):
        # Every wholesale replacement goes through install_flips.
        import pathlib
        import re

        import repro

        pattern = re.compile(r"\._flips\s*=[^=]|\._flips\.(update|clear|pop)\(")
        root = pathlib.Path(repro.__file__).parent
        offenders = [
            "{}:{}".format(path.relative_to(root), number)
            for path in sorted(root.rglob("*.py"))
            if path.name != "ipanon.py"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert offenders == []
