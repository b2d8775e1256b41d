"""Serialization codec and simulated network."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import NetworkProfile
from repro.errors import NetworkError, SerializationError, UnknownPeerError
from repro.net.message import Envelope, LinkStats
from repro.net.network import SimulatedNetwork
from repro.net.serialization import decode, encode, encoded_size


class TestSerialization:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            2**100,
            -(2**100),
            3.14,
            float("inf"),
            "",
            "unicode ünïcode",
            b"",
            b"bytes",
            [],
            [1, "two", None],
            (1, 2),
            {},
            {"a": 1, "b": [True, {"c": b"x"}]},
        ],
    )
    def test_roundtrip_scalars_and_containers(self, value):
        assert decode(encode(value)) == value

    def test_roundtrip_preserves_types(self):
        assert decode(encode((1, 2))) == (1, 2)
        assert isinstance(decode(encode((1, 2))), tuple)
        assert isinstance(decode(encode([1, 2])), list)
        assert decode(encode(True)) is True
        assert decode(encode(1)) == 1 and decode(encode(1)) is not True

    @pytest.mark.parametrize(
        "dtype", [np.uint8, np.int64, np.float64, np.float32]
    )
    def test_roundtrip_arrays(self, dtype):
        array = np.arange(24, dtype=dtype).reshape(4, 6)
        out = decode(encode(array))
        assert out.dtype == array.dtype
        assert np.array_equal(out, array)

    def test_roundtrip_empty_and_0d_arrays(self):
        empty = np.zeros((0, 5), dtype=np.int64)
        assert decode(encode(empty)).shape == (0, 5)
        scalar = np.array(3.5)
        assert decode(encode(scalar)).shape == ()

    def test_noncontiguous_array(self):
        array = np.arange(24, dtype=np.int64).reshape(4, 6)[:, ::2]
        assert np.array_equal(decode(encode(array)), array)

    def test_dict_key_order_canonical(self):
        assert encode({"a": 1, "b": 2}) == encode({"b": 2, "a": 1})

    def test_numpy_scalars_coerce(self):
        assert decode(encode(np.int64(7))) == 7
        assert decode(encode(np.float64(2.5))) == 2.5

    def test_rejects_unknown_types(self):
        with pytest.raises(SerializationError):
            encode(object())

    def test_rejects_non_string_dict_keys(self):
        with pytest.raises(SerializationError):
            encode({1: "x"})

    def test_rejects_trailing_bytes(self):
        with pytest.raises(SerializationError):
            decode(encode(1) + b"\x00")

    def test_rejects_truncation(self):
        data = encode([1, 2, 3])
        with pytest.raises(SerializationError):
            decode(data[:-1])

    def test_rejects_deep_nesting(self):
        value: list = []
        for _ in range(100):
            value = [value]
        with pytest.raises(SerializationError):
            encode(value)

    def test_encoded_size(self):
        assert encoded_size({"x": 1}) == len(encode({"x": 1}))

    json_like = st.recursive(
        st.none()
        | st.booleans()
        | st.integers(min_value=-(2**64), max_value=2**64)
        | st.floats(allow_nan=False)
        | st.text(max_size=20)
        | st.binary(max_size=20),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=20,
    )

    @given(json_like)
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_property(self, value):
        assert decode(encode(value)) == value


class TestSimulatedNetwork:
    def _net(self, profile=None):
        net = SimulatedNetwork(profile)
        net.register("a")
        net.register("b")
        net.register("c")
        return net

    def test_send_receive(self):
        net = self._net()
        net.send(Envelope(sender="a", receiver="b", tag="t", body=b"x"))
        envelope = net.receive("b", "t")
        assert envelope.body == b"x"
        assert envelope.sender == "a"

    def test_fifo_per_receiver(self):
        net = self._net()
        for i in range(5):
            net.send(Envelope("a", "b", "t", str(i).encode()))
        assert [net.receive("b").body for _ in range(5)] == [
            str(i).encode() for i in range(5)
        ]

    def test_tag_mismatch(self):
        net = self._net()
        net.send(Envelope("a", "b", "t1", b""))
        with pytest.raises(NetworkError):
            net.receive("b", "t2")

    def test_tag_mismatch_preserves_inbox(self):
        net = self._net()
        net.send(Envelope("a", "b", "t1", b"payload"))
        with pytest.raises(NetworkError):
            net.receive("b", "t2")
        # The mismatched envelope is peeked, not consumed: the correct
        # receive still succeeds afterwards.
        assert net.pending("b") == 1
        assert net.receive("b", "t1").body == b"payload"
        assert net.pending("b") == 0

    def test_tag_mismatch_reports_pending_tags(self):
        net = self._net()
        net.send(Envelope("a", "b", "t1", b""))
        net.send(Envelope("c", "b", "t3", b""))
        with pytest.raises(NetworkError, match="t1.*t3"):
            net.receive("b", "t2")

    def test_empty_inbox(self):
        with pytest.raises(NetworkError):
            self._net().receive("a")

    def test_unknown_nodes(self):
        net = self._net()
        with pytest.raises(UnknownPeerError):
            net.send(Envelope("a", "nope", "t", b""))
        with pytest.raises(UnknownPeerError):
            net.receive("nope")

    def test_duplicate_registration(self):
        net = self._net()
        with pytest.raises(NetworkError):
            net.register("a")

    def test_self_send_rejected(self):
        net = self._net()
        with pytest.raises(NetworkError):
            net.send(Envelope("a", "a", "t", b""))

    def test_broadcast_skips_sender(self):
        net = self._net()
        count = net.broadcast("a", ["a", "b", "c"], "t", b"hello")
        assert count == 2
        assert net.pending("b") == 1 and net.pending("c") == 1
        assert net.pending("a") == 0

    def test_drain(self):
        net = self._net()
        for _ in range(3):
            net.send(Envelope("a", "b", "t", b"x"))
        assert len(net.drain("b", "t", 3)) == 3

    def test_partition_and_heal(self):
        net = self._net()
        net.partition("b")
        with pytest.raises(NetworkError):
            net.send(Envelope("a", "b", "t", b""))
        with pytest.raises(NetworkError):
            net.send(Envelope("b", "a", "t", b""))
        net.heal("b")
        net.send(Envelope("a", "b", "t", b""))
        assert net.pending("b") == 1

    def test_link_stats_merge(self):
        net = self._net()
        net.send(Envelope("a", "b", "t", bytes(100)))
        net.send(Envelope("b", "c", "t", bytes(50)))
        ab = net.link_stats("a", "b")
        bc = net.link_stats("b", "c")
        merged = LinkStats()
        assert merged.merge(ab) is merged  # chains
        merged.merge(bc)
        assert merged.messages == ab.messages + bc.messages
        assert merged.payload_bytes == ab.payload_bytes + bc.payload_bytes
        assert merged.wire_bytes == ab.wire_bytes + bc.wire_bytes
        total = net.total_stats()
        assert (total.messages, total.payload_bytes, total.wire_bytes) == (
            merged.messages, merged.payload_bytes, merged.wire_bytes
        )

    def test_links_view(self):
        net = self._net()
        net.send(Envelope("a", "b", "t", bytes(10)))
        links = net.links()
        assert set(links) == {("a", "b")}
        assert links[("a", "b")].messages == 1

    def test_traffic_accounting(self):
        net = self._net()
        net.send(Envelope("a", "b", "t", bytes(100)))
        net.send(Envelope("a", "b", "t", bytes(50)))
        stats = net.link_stats("a", "b")
        assert stats.messages == 2
        assert stats.payload_bytes == 150
        assert stats.wire_bytes > 150
        total = net.total_stats()
        assert total.messages == 2
        assert ("a", "b") in net.traffic_matrix()

    def test_simulated_clock(self):
        profile = NetworkProfile(latency_s=0.01, bandwidth_bytes_per_s=1000)
        net = self._net(profile)
        net.send(Envelope("a", "b", "t", bytes(100)))
        # latency + size/bandwidth, with headers adding a little
        assert net.simulated_time > 0.01 + 100 / 1000

    def test_zero_profile_clock(self):
        net = self._net()
        net.send(Envelope("a", "b", "t", bytes(100)))
        assert net.simulated_time == 0.0

    def test_nodes_sorted(self):
        assert self._net().nodes() == ["a", "b", "c"]

    def test_heal_unknown_node_rejected(self):
        with pytest.raises(UnknownPeerError):
            self._net().heal("nope")

    def test_heal_is_idempotent_for_known_nodes(self):
        net = self._net()
        net.heal("a")  # never partitioned: a no-op, not an error
        net.partition("a")
        net.heal("a")
        net.heal("a")
        net.send(Envelope("a", "b", "t", b""))

    def test_broadcast_is_atomic_on_partitioned_target(self):
        net = self._net()
        net.partition("c")
        with pytest.raises(NetworkError):
            net.broadcast("a", ["b", "c"], "t", b"x")
        # Validation precedes delivery: "b" saw nothing.
        assert net.pending("b") == 0

    def test_broadcast_is_atomic_on_unknown_target(self):
        net = self._net()
        with pytest.raises(UnknownPeerError):
            net.broadcast("a", ["b", "nope"], "t", b"x")
        assert net.pending("b") == 0

    def test_drain_restores_inbox_on_failure(self):
        net = self._net()
        for i in range(3):
            net.send(Envelope("a", "b", "t", str(i).encode()))
        net.send(Envelope("a", "b", "other", b"odd one out"))
        with pytest.raises(NetworkError):
            net.drain("b", "t", 4)
        # All-or-nothing: the three popped envelopes went back, in order.
        assert net.pending("b") == 4
        assert [e.body for e in net.drain("b", "t", 3)] == [b"0", b"1", b"2"]

    def test_drain_restores_inbox_when_short(self):
        net = self._net()
        net.send(Envelope("a", "b", "t", b"only"))
        with pytest.raises(NetworkError):
            net.drain("b", "t", 2)
        assert net.pending("b") == 1

    def test_advance_clock(self):
        net = self._net()
        assert net.advance_clock(1.5) == 1.5
        assert net.simulated_time == 1.5
        with pytest.raises(NetworkError):
            net.advance_clock(-0.1)

    def test_flush_discards_pending(self):
        net = self._net()
        for _ in range(3):
            net.send(Envelope("a", "b", "t", b"x"))
        assert net.flush("b") == 3
        assert net.pending("b") == 0
        with pytest.raises(UnknownPeerError):
            net.flush("nope")


def test_network_profile_validation():
    with pytest.raises(Exception):
        NetworkProfile(latency_s=-1)
    with pytest.raises(Exception):
        NetworkProfile(bandwidth_bytes_per_s=0)
    assert NetworkProfile(latency_s=0.5).transfer_time(10) == 0.5


class TestScopedNetwork:
    def _scoped(self, profile=None):
        net = SimulatedNetwork(profile)
        alpha = net.scope("alpha")
        beta = net.scope("beta")
        for scope in (alpha, beta):
            scope.register("a")
            scope.register("b")
        return net, alpha, beta

    def test_same_logical_ids_are_isolated(self):
        _, alpha, beta = self._scoped()
        alpha.send(Envelope("a", "b", "t", b"from-alpha"))
        beta.send(Envelope("a", "b", "t", b"from-beta"))
        assert alpha.receive("b", "t").body == b"from-alpha"
        assert beta.receive("b", "t").body == b"from-beta"
        assert alpha.pending("b") == 0 and beta.pending("b") == 0

    def test_envelopes_keep_logical_ids(self):
        _, alpha, _ = self._scoped()
        alpha.send(Envelope("a", "b", "t", b"x"))
        envelope = alpha.receive("b")
        assert envelope.sender == "a" and envelope.receiver == "b"

    def test_scoped_nodes_and_flush(self):
        net, alpha, beta = self._scoped()
        assert sorted(alpha.nodes()) == ["a", "b"]
        assert sorted(net.nodes()) == [
            "alpha//a", "alpha//b", "beta//a", "beta//b"
        ]
        alpha.send(Envelope("a", "b", "t", b"x"))
        beta.send(Envelope("a", "b", "t", b"y"))
        assert alpha.flush("b") == 1
        assert beta.pending("b") == 1

    def test_per_scope_clock_isolation(self):
        profile = NetworkProfile(latency_s=1.0)
        net, alpha, beta = self._scoped(profile)
        alpha.send(Envelope("a", "b", "t", b"x"))
        assert alpha.simulated_time == pytest.approx(1.0)
        assert beta.simulated_time == 0.0
        # Retry backoff on one session's clock must not leak.
        beta.advance_clock(5.0)
        assert alpha.simulated_time == pytest.approx(1.0)
        assert beta.simulated_time == pytest.approx(5.0)
        # The shared router accrues transfer time from every scope.
        assert net.simulated_time == pytest.approx(1.0)

    def test_concurrent_drain_is_atomic(self):
        net, alpha, beta = self._scoped()
        for index in range(4):
            alpha.send(Envelope("a", "b", "t", str(index).encode()))
            beta.send(Envelope("a", "b", "t", str(index).encode()))
        assert [e.body for e in alpha.drain("b", "t", 4)] == [
            str(i).encode() for i in range(4)
        ]
        assert len(beta.drain("b", "t", 4)) == 4

    def test_namespace_separator_rejected(self):
        net = SimulatedNetwork()
        with pytest.raises(NetworkError):
            net.register("x//y")
        with pytest.raises(NetworkError):
            net.scope("")
        scope = net.scope("s")
        with pytest.raises(NetworkError):
            net.scope("s")
        with pytest.raises(NetworkError):
            scope.register("a//b")

    def test_release_scope_drops_namespace(self):
        net, alpha, beta = self._scoped()
        alpha.send(Envelope("a", "b", "t", b"x"))
        net.release_scope(alpha)
        assert sorted(net.nodes()) == ["beta//a", "beta//b"]
        # The namespace is reusable after release.
        again = net.scope("alpha")
        again.register("a")
        assert again.pending("a") == 0

    def test_scope_link_stats_are_per_scope(self):
        _, alpha, beta = self._scoped()
        alpha.send(Envelope("a", "b", "t", b"payload"))
        assert ("a", "b") in alpha.links()
        assert beta.links() == {} or ("a", "b") not in beta.links()
        stats = alpha.link_stats("a", "b")
        assert stats.messages == 1
