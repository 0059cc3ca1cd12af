"""Tests for prefix-preserving IP anonymization — the paper's key
algorithmic invariants (Section 4.3), several property-based."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cryptopan import CryptoPanMap
from repro.core.ipanon import (
    Prefix6PreservingMap,
    PrefixPreservingMap,
    SpecialAddresses,
)
from repro.netutil import address_class, ip_to_int, int_to_ip, trailing_zero_bits

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)
unicast = st.integers(min_value=0x01000000, max_value=0xDFFFFFFF)


def shared_prefix_len(a: int, b: int) -> int:
    xor = a ^ b
    if xor == 0:
        return 32
    return 32 - xor.bit_length()


class TestSpecialAddresses:
    def test_netmasks_are_special(self):
        specials = SpecialAddresses()
        for text in ("255.255.255.0", "255.255.255.252", "255.0.0.0",
                     "0.0.0.0", "255.255.255.255"):
            assert ip_to_int(text) in specials

    def test_inverse_masks_are_special(self):
        specials = SpecialAddresses()
        for text in ("0.0.0.255", "0.0.0.3", "0.255.255.255"):
            assert ip_to_int(text) in specials

    def test_multicast_special_loopback_optional(self):
        specials = SpecialAddresses()
        assert ip_to_int("224.0.0.5") in specials
        assert ip_to_int("239.1.2.3") in specials
        # Loopback is opt-in (the paper's set is masks + multicast).
        assert ip_to_int("127.0.0.1") not in specials
        assert ip_to_int("127.0.0.1") in SpecialAddresses(include_loopback=True)

    def test_ordinary_addresses_not_special(self):
        specials = SpecialAddresses()
        for text in ("10.1.2.3", "6.0.0.1", "192.168.1.1", "128.32.5.9"):
            assert ip_to_int(text) not in specials

    def test_why_special(self):
        specials = SpecialAddresses(include_loopback=True)
        assert specials.why_special(ip_to_int("255.255.0.0")) == "mask-or-configured"
        assert specials.why_special(ip_to_int("224.0.0.1")) == "multicast-or-reserved"
        assert specials.why_special(ip_to_int("127.1.1.1")) == "loopback"
        assert specials.why_special(ip_to_int("10.0.0.1")) is None

    def test_extra_values(self):
        specials = SpecialAddresses(extra=[ip_to_int("10.9.9.9")])
        assert ip_to_int("10.9.9.9") in specials

    def test_families_can_be_disabled(self):
        specials = SpecialAddresses(include_multicast=False)
        assert ip_to_int("224.0.0.5") not in specials
        assert ip_to_int("127.0.0.1") not in specials


class TestRawTrieMap:
    def test_deterministic_same_salt(self):
        a = PrefixPreservingMap(b"k")
        b = PrefixPreservingMap(b"k")
        for text in ("10.0.0.1", "1.2.3.4", "200.1.1.1"):
            assert a.map_address(text) == b.map_address(text)

    def test_different_salts_differ(self):
        a = PrefixPreservingMap(b"k1")
        b = PrefixPreservingMap(b"k2")
        diffs = sum(
            a.map_address(t) != b.map_address(t)
            for t in ("10.0.0.1", "1.2.3.4", "200.1.1.1", "6.7.8.9")
        )
        assert diffs >= 3  # overwhelming probability

    @settings(max_examples=60, deadline=None)
    @given(st.lists(addresses, min_size=2, max_size=40, unique=True))
    def test_raw_map_injective(self, values):
        mapping = PrefixPreservingMap(b"prop")
        outputs = [mapping.raw_map(v) for v in values]
        assert len(set(outputs)) == len(values)

    @settings(max_examples=80, deadline=None)
    @given(a=addresses, b=addresses)
    def test_prefix_preserving_property(self, a, b):
        """shared_prefix(map(a), map(b)) == shared_prefix(a, b) exactly."""
        mapping = PrefixPreservingMap(b"prop", preserve_specials=False)
        ma, mb = mapping.raw_map(a), mapping.raw_map(b)
        assert shared_prefix_len(ma, mb) == shared_prefix_len(a, b)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            PrefixPreservingMap(b"k").raw_map(-1)
        with pytest.raises(ValueError):
            PrefixPreservingMap(b"k").raw_map(1 << 32)


class TestClassPreservation:
    @settings(max_examples=100, deadline=None)
    @given(addresses)
    def test_class_preserved(self, value):
        mapping = PrefixPreservingMap(b"cls", preserve_specials=False)
        assert address_class(mapping.raw_map(value)) == address_class(value)

    def test_can_be_disabled(self):
        mapping = PrefixPreservingMap(b"cls2", class_preserving=False,
                                      preserve_specials=False, subnet_shaping=False)
        changed = sum(
            address_class(mapping.raw_map(v)) != address_class(v)
            for v in range(0x01000000, 0x01000000 + 256)
        )
        # With a free top bit roughly half of class-A inputs leave class A.
        assert changed > 0


class TestSpecialHandling:
    def test_specials_are_fixed_points(self):
        mapping = PrefixPreservingMap(b"fix")
        for text in ("255.255.255.0", "0.0.0.255", "224.0.0.5",
                     "0.0.0.0", "255.255.255.255"):
            assert mapping.map_address(text) == text

    def test_loopback_fixed_when_opted_in(self):
        mapping = PrefixPreservingMap(
            b"fix", specials=SpecialAddresses(include_loopback=True)
        )
        assert mapping.map_address("127.0.0.1") == "127.0.0.1"

    def test_exact_prefix_preservation_with_default_specials(self):
        import random as _random

        rng = _random.Random(1)
        mapping = PrefixPreservingMap(b"exact")
        values = [rng.randrange(0x01000000, 0xDF000000) for _ in range(4000)]
        mapped = {v: mapping.map_int(v) for v in set(values)}
        assert mapping.collision_walks == 0
        pairs = list(mapped.items())[:500]
        for (a, ma) in pairs:
            b, mb = pairs[(hash(a) % len(pairs))]
            xor_in, xor_out = a ^ b, ma ^ mb
            assert xor_in.bit_length() == xor_out.bit_length()

    def test_output_never_special_with_walk_policy(self):
        mapping = PrefixPreservingMap(b"out", collision_policy="walk")
        specials = mapping.specials
        for value in range(0x06000000, 0x06000000 + 2000, 7):
            assert mapping.map_int(value) not in specials

    def test_allow_policy_keeps_prefix_relations_always(self):
        # The default policy: even the unlucky /8-base case (the one that
        # breaks the walk policy) keeps exact prefix structure.
        mapping = PrefixPreservingMap(b"allow-pol")
        base = mapping.map_int(ip_to_int("10.0.0.0"))
        host = mapping.map_int(ip_to_int("10.0.0.5"))
        assert shared_prefix_len(base, host) >= 29

    def test_collision_policy_validated(self):
        with pytest.raises(ValueError):
            PrefixPreservingMap(b"x", collision_policy="bogus")

    @settings(max_examples=40, deadline=None)
    @given(st.lists(unicast, min_size=2, max_size=50, unique=True))
    def test_bijection_with_cycle_walking(self, values):
        mapping = PrefixPreservingMap(b"bij", collision_policy="walk")
        nonspecial = [v for v in values if v not in mapping.specials]
        outputs = [mapping.map_int(v) for v in nonspecial]
        assert len(set(outputs)) == len(nonspecial)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(unicast, min_size=2, max_size=50, unique=True))
    def test_injective_under_allow_policy(self, values):
        mapping = PrefixPreservingMap(b"bij2")
        nonspecial = [v for v in values if v not in mapping.specials]
        outputs = [mapping.map_int(v) for v in nonspecial]
        assert len(set(outputs)) == len(nonspecial)

    def test_collision_counters(self):
        # Class-A inputs can collide with inverse masks (0.x.y.z region):
        # hammer the 0/1 boundary region to exercise both policies.
        walker = PrefixPreservingMap(b"walk", collision_policy="walk")
        allower = PrefixPreservingMap(b"walk", collision_policy="allow")
        for value in range(1, 40000, 11):
            walker.map_int(value)
            allower.map_int(value)
        assert walker.collision_walks >= 0
        assert allower.collision_walks == 0
        assert walker.map_int(23) == walker.map_int(23)


class TestSubnetShaping:
    def test_subnet_address_maps_to_subnet_address(self):
        mapping = PrefixPreservingMap(b"shape")
        # Insert the subnet address FIRST (the paper's best-effort case).
        mapped = mapping.map_address("10.1.1.0")
        assert trailing_zero_bits(ip_to_int(mapped)) >= 8

    def test_hosts_follow_shaped_subnet(self):
        mapping = PrefixPreservingMap(b"shape2")
        subnet = ip_to_int(mapping.map_address("10.1.1.0"))
        host = ip_to_int(mapping.map_address("10.1.1.5"))
        assert shared_prefix_len(subnet, host) >= 24

    def test_shaping_can_be_disabled(self):
        mapping = PrefixPreservingMap(b"shape3", subnet_shaping=False)
        shaped = sum(
            trailing_zero_bits(ip_to_int(mapping.map_address("10.{}.0.0".format(i)))) >= 16
            for i in range(1, 30)
        )
        assert shaped < 10  # random tails rarely have 16 zero bits

    def test_min_zeros_threshold(self):
        mapping = PrefixPreservingMap(b"shape4", subnet_shaping_min_zeros=2)
        mapped = ip_to_int(mapping.map_address("10.1.1.4"))  # /30 base
        assert trailing_zero_bits(mapped) >= 2


class TestPrefixHelpers:
    def test_map_prefix_keeps_length(self):
        mapping = PrefixPreservingMap(b"p")
        out = mapping.map_prefix("10.1.1.0/24")
        assert out.endswith("/24")

    def test_map_prefix_requires_slash(self):
        with pytest.raises(ValueError):
            PrefixPreservingMap(b"p").map_prefix("10.1.1.0")

    def test_stats(self):
        mapping = PrefixPreservingMap(b"p")
        mapping.map_address("10.0.0.1")
        assert mapping.addresses_mapped == 1
        assert mapping.nodes_created > 0


class TestCryptoPan:
    def test_stateless_consistency(self):
        a = CryptoPanMap(b"k")
        b = CryptoPanMap(b"k")
        # Map in different orders: outputs must agree (the paper's point
        # about Xu's scheme needing little shared state).
        addrs = ["10.0.0.1", "1.2.3.4", "6.6.6.6", "150.20.3.9"]
        out_a = {t: a.map_address(t) for t in addrs}
        out_b = {t: b.map_address(t) for t in reversed(addrs)}
        assert out_a == out_b

    @settings(max_examples=60, deadline=None)
    @given(a=addresses, b=addresses)
    def test_prefix_preserving(self, a, b):
        mapping = CryptoPanMap(b"prop", preserve_specials=False)
        assert shared_prefix_len(mapping.raw_map(a), mapping.raw_map(b)) == (
            shared_prefix_len(a, b)
        )

    @settings(max_examples=60, deadline=None)
    @given(addresses)
    def test_class_preserved(self, value):
        mapping = CryptoPanMap(b"cls", preserve_specials=False)
        assert address_class(mapping.raw_map(value)) == address_class(value)

    def test_specials_fixed(self):
        mapping = CryptoPanMap(b"fix")
        assert mapping.map_address("255.255.0.0") == "255.255.0.0"
        assert mapping.map_address("224.1.2.3") == "224.1.2.3"

    def test_no_insertion_order_dependence_vs_trie(self):
        # The trie map's subnet shaping depends on insertion order; the
        # crypto map's output for one address never does.
        trie1 = PrefixPreservingMap(b"o")
        trie2 = PrefixPreservingMap(b"o")
        trie1.map_address("10.1.1.5")     # host first
        trie1_sub = trie1.map_address("10.1.1.0")
        trie2_sub = trie2.map_address("10.1.1.0")  # subnet first
        crypto1 = CryptoPanMap(b"o")
        crypto2 = CryptoPanMap(b"o")
        crypto1.map_address("10.1.1.5")
        assert crypto1.map_address("10.1.1.0") == crypto2.map_address("10.1.1.0")
        # (the trie outputs may or may not differ; both stay valid mappings)
        assert trie1_sub != "" and trie2_sub != ""


def _reference_walk(trie, value: int) -> int:
    """The from-root walk: probe every depth, creating each missing node
    in depth order (what ``raw_map`` did before walks resumed)."""
    width = trie._WIDTH
    output = 0
    shapeable = -1
    for depth in range(width):
        prefix = value >> (width - depth)
        key = (depth, prefix)
        flip = trie._flips.get(key)
        if flip is None:
            if shapeable < 0:
                shapeable = trie._shapeable_zeros(value)
            flip = trie._new_flip(depth, prefix, value, shapeable)
            trie._flips[key] = flip
        bit = (value >> (width - 1 - depth)) & 1
        output = (output << 1) | (bit ^ flip)
    return output


@st.composite
def address_runs(draw, width: int):
    """Addresses clustered under a few shared prefixes, with repeats and
    strays, in drawn, sorted or shuffled order."""
    bases = draw(
        st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=4)
    )
    values = []
    for _ in range(draw(st.integers(1, 40))):
        base = draw(st.sampled_from(bases))
        low = draw(st.integers(1, width))  # how many low bits vary
        values.append((base >> low << low) | draw(st.integers(0, (1 << low) - 1)))
    order = draw(st.sampled_from(["drawn", "sorted", "shuffled"]))
    if order == "sorted":
        values.sort()
    elif order == "shuffled":
        values = draw(st.permutations(values))
    return values


class TestResumedWalk:
    """``raw_map`` resumes below the deepest prefix it already knows; it
    must create exactly the nodes, RNG draws and ``_flips`` order of a
    walk from the root, whatever happened to its memos in between."""

    @pytest.mark.parametrize(
        "cls", [PrefixPreservingMap, Prefix6PreservingMap], ids=["v4", "v6"]
    )
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_walk_from_root(self, cls, data):
        width = cls._WIDTH
        values = data.draw(address_runs(width), label="values")
        points = st.integers(-1, len(values))  # -1: never
        freeze_at = data.draw(points, label="freeze_at")
        invalidate_at = data.draw(points, label="invalidate_at")
        delta_at = data.draw(points, label="delta_at")
        resumed, reference = cls(b"walk"), cls(b"walk")
        for index, value in enumerate(values):
            if index == freeze_at:
                resumed.freeze()
                reference.freeze()
            if index == invalidate_at:
                resumed.invalidate_cache()
            if index == delta_at:
                # A state delta from a session with another history: its
                # nodes may overwrite ones this map already walked.
                donor = cls(b"walk")
                for other in values[::-1][:6]:
                    donor.raw_map(other ^ 1)
                resumed.install_flips(dict(donor._flips), merge=True)
                reference._flips.update(donor._flips)
            assert resumed.raw_map(value) == _reference_walk(reference, value)
        assert list(resumed._flips.items()) == list(reference._flips.items())
        assert resumed._rng.getstate() == reference._rng.getstate()
        for value in values:  # memo hits agree too
            assert resumed.raw_map(value) == _reference_walk(reference, value)

    @pytest.mark.parametrize(
        "cls", [PrefixPreservingMap, Prefix6PreservingMap], ids=["v4", "v6"]
    )
    def test_install_drops_every_memo(self, cls):
        # Warm the raw cache and the last-walk record,
        # then replace the trie with one grown in another order: every
        # answer must come from the new nodes.
        width = cls._WIDTH
        base = 0x0A010100 << (width - 32)
        values = [base | low for low in (5, 0, 9, 200)]
        stale = cls(b"swap")
        for value in values:
            stale.raw_map(value)
        fresh = cls(b"swap")
        for value in reversed(values):
            fresh.raw_map(value)
        assert any(stale.raw_map(v) != fresh.raw_map(v) for v in values)
        stale.install_flips(dict(fresh._flips))
        assert stale._last_value == -1
        for value in values + [base | 77, base | 1 << 9]:
            assert stale.raw_map(value) == fresh.raw_map(value)

    def test_resume_skips_shared_levels(self):
        mapping = PrefixPreservingMap(b"resume")
        mapping.raw_map(ip_to_int("10.1.1.1"))
        probes = []
        flips = mapping._flips

        class CountingDict(dict):
            def get(self, key, default=None):
                probes.append(key[0])
                return dict.get(self, key, default)

        mapping._flips = CountingDict(flips)
        mapping.raw_map(ip_to_int("10.1.1.2"))
        # .1 and .2 first differ at bit 30, so depths 0-30 are known.
        assert probes == [31]
