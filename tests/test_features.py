from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadyn.errors import DataError
from cascadyn.features import (
    DELAY_SHIFT,
    FEATURE_SCHEMA,
    Cascade,
    CascadeEvent,
    Network,
    extract_features,
    extract_subcascades,
    filter_cascades,
    read_cascades_jsonl,
    read_features_csv,
    read_network_csv,
    write_cascades_jsonl,
    write_features_csv,
    write_network_csv,
)
from cascadyn.fitting import SubcascadeTable
from cascadyn.userids import intern
from worlds import (
    oracle_adjacency,
    oracle_extract_features,
    oracle_extract_subcascades,
    oracle_size_at,
    worlds,
)


def cascade(cid, *events):
    return Cascade(cascade_id=cid, events=[CascadeEvent(u, p, t) for u, p, t in events])


class TestCascadeValidation:
    def test_rejects_duplicate_user(self):
        with pytest.raises(DataError):
            cascade("c", ("a", None, 0), ("b", "a", 1), ("a", "b", 2))

    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(DataError):
            cascade("c", ("a", None, 5), ("b", "a", 1))

    def test_rejects_unknown_parent(self):
        with pytest.raises(DataError, match="unknown parent"):
            cascade("c", ("a", None, 0), ("b", "zzz", 1))

    def test_rejects_second_root(self):
        with pytest.raises(DataError):
            cascade("c", ("a", None, 0), ("b", None, 1))

    def test_rejects_parentful_first_event(self):
        with pytest.raises(DataError):
            cascade("c", ("a", "b", 0))

    def test_size_at(self):
        c = cascade("c", ("a", None, 0), ("b", "a", 2), ("d", "a", 5))
        assert c.size_at(-1) == 0
        assert c.size_at(0) == 1
        assert c.size_at(2) == 2
        assert c.size_at(99) == 3

    @settings(max_examples=150, deadline=None)
    @given(world=worlds(), data=st.data())
    def test_size_at_matches_event_loop(self, world, data):
        _, _, cascades = world
        for c in cascades:
            # event times (ties included), points between them, before the
            # root and past the end, and the infinities and NaN
            t = data.draw(st.sampled_from(c.times.tolist()) | st.floats(-10.0, 80.0)
                          | st.sampled_from([float("inf"), float("-inf"), float("nan")]))
            assert c.size_at(t) == oracle_size_at(c, t)


class TestNetworkValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(DataError):
            Network(nodes=["a"], edges=[("a", "a")])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(DataError):
            Network(nodes=["a"], edges=[("a", "b")])

    def test_adjacency_is_sorted_and_deduplicated(self):
        net = Network(nodes=["a", "b", "c"],
                      edges=[("c", "a"), ("b", "a"), ("c", "a")])
        assert net.followers["a"] == ["b", "c"]
        assert net.follower_count("a") == 2


class TestNetworkArrays:
    @settings(max_examples=150, deadline=None)
    @given(world=worlds())
    def test_csr_matches_name_lists(self, world):
        nodes, edges, _ = world
        net = Network(nodes=nodes, edges=edges)
        followers, followees = oracle_adjacency(nodes, edges)
        assert net.followers == followers and net.followees == followees
        assert net.edges == sorted(set(edges))
        assert all(net.nodes[i] == u for u, i in net.index.items())
        for ptr, idx, lists in ((net.follower_ptr, net.follower_idx, followers),
                                (net.followee_ptr, net.followee_idx, followees)):
            assert ptr.dtype == idx.dtype == np.int32
            assert not ptr.flags.writeable and not idx.flags.writeable
            assert ptr[0] == 0 and ptr[-1] == len(net.edges)
            for i, u in enumerate(net.nodes):
                assert [net.nodes[j] for j in idx[ptr[i]:ptr[i + 1]]] == lists[u]
        assert net.follower_counts.tolist() == [len(followers[u]) for u in net.nodes]


    @settings(max_examples=100, deadline=None)
    @given(world=worlds())
    def test_rows_build_the_same_network(self, world):
        nodes, edges, _ = world
        net = Network(nodes=nodes, edges=edges)
        index = {u: i for i, u in enumerate(net.nodes)}
        shuffled = sorted(set(edges), reverse=True)
        from_rows = Network._from_rows(
            list(net.nodes), np.array([index[a] for a, _ in shuffled], dtype=np.int32),
            np.array([index[b] for _, b in shuffled], dtype=np.int32))
        assert from_rows == net and from_rows.edges == net.edges
        for name in ("follower_ptr", "follower_idx", "followee_ptr", "followee_idx"):
            assert getattr(from_rows, name).tolist() == getattr(net, name).tolist()

    def test_edges_are_a_fresh_value_and_equality_follows_them(self):
        net = Network(nodes=["a", "b", "c"], edges=[("b", "a"), ("c", "a")])
        net.edges.append(("a", "c"))
        assert net.edges == [("b", "a"), ("c", "a")]
        assert net == Network(nodes=["c", "b", "a"], edges=[("c", "a"), ("b", "a"), ("b", "a")])
        assert net != Network(nodes=["a", "b", "c"], edges=[("b", "a")])
        assert net != Network(nodes=["a", "b", "c", "d"], edges=[("b", "a"), ("c", "a")])
        assert net != net.edges


class TestCascadeArrays:
    def test_arrays_of_a_two_level_cascade(self):
        c = cascade("w", ("p1", None, 0), ("p2", "p1", 1), ("p3", "p1", 4), ("p4", "p2", 4))
        assert c.parent_positions.tolist() == [-1, 0, 0, 1]
        assert c.times.tolist() == [0.0, 1.0, 4.0, 4.0]
        assert c.depths.tolist() == [0, 1, 1, 2]
        for a in (c.parent_positions, c.times, c.depths):
            assert not a.flags.writeable
        assert c.times is c.times  # built once

    def test_events_are_slotted(self):
        ev = CascadeEvent("a", None, 0.0)
        assert not hasattr(ev, "__dict__")
        with pytest.raises(AttributeError):
            ev.t = 1.0

    def test_unknown_parent_named_by_extraction(self):
        c = cascade("c", ("a", None, 0), ("b", "a", 1))
        c.events[1] = CascadeEvent("b", "zzz", 1.0)  # bypasses the tree check
        with pytest.raises(DataError, match="cascade 'c': unknown parent 'zzz'"):
            extract_subcascades([c])


class TestExtractionMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(world=worlds())
    def test_subcascades_bit_for_bit(self, world):
        _, _, cascades = world
        got = extract_subcascades(cascades)
        expected = oracle_extract_subcascades(cascades, DELAY_SHIFT)
        assert list(got) == list(expected)
        for user, sample in expected.items():
            assert got[user].user == user
            assert got[user].delays.tobytes() == sample.delays.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(world=worlds())
    def test_flat_layout_bit_for_bit(self, world):
        # the fits read the flat arrays, not the samples built on reading
        _, _, cascades = world
        got = extract_subcascades(cascades)
        expected = oracle_extract_subcascades(cascades, DELAY_SHIFT)
        assert got.users == list(expected)
        assert got.delays.tobytes() == np.concatenate(
            [np.empty(0), *(s.delays for s in expected.values())]).tobytes()
        assert got.offsets.tolist() == np.cumsum(
            [0, *(s.n for s in expected.values())]).tolist()
        assert got.user_ids.tolist() == intern(got.users).tolist()

    @settings(max_examples=150, deadline=None)
    @given(world=worlds())
    def test_features_within_rounding(self, world):
        nodes, edges, cascades = world
        net = Network(nodes=nodes, edges=edges)
        got = extract_features(net, cascades)
        assert got.users == net.nodes and got.names == list(FEATURE_SCHEMA)
        assert got.user_ids.tolist() == intern(got.users).tolist()
        np.testing.assert_allclose(got.values, oracle_extract_features(net, cascades),
                                   rtol=1e-12, atol=0.0)

    def test_first_absent_user_named(self):
        net = Network(nodes=["a", "b"], edges=[])
        cs = [cascade("c1", ("a", None, 0)), cascade("c2", ("b", None, 0), ("x", "b", 1)),
              cascade("c3", ("y", None, 0))]
        with pytest.raises(DataError, match="cascade 'c2': user 'x' absent from network"):
            extract_features(net, cs)


class TestExtractSubcascades:
    def test_root_with_two_children(self):
        c = cascade("c", ("r", None, 0), ("a", "r", 3), ("b", "r", 5))
        samples = extract_subcascades([c])
        assert list(samples) == ["r"]
        assert samples["r"].delays.tolist() == [4.0, 6.0]

    def test_chain(self):
        c = cascade("c", ("r", None, 0), ("a", "r", 2), ("b", "a", 7))
        samples = extract_subcascades([c])
        assert samples["r"].delays.tolist() == [3.0]
        assert samples["a"].delays.tolist() == [6.0]

    def test_two_level_worked_fixture(self):
        # hand trace: p1 posts at 0, p2/p3 reply at 1 and 4, p4 replies to p2 at 4
        c = cascade("w", ("p1", None, 0), ("p2", "p1", 1), ("p3", "p1", 4), ("p4", "p2", 4))
        samples = extract_subcascades([c])
        assert samples["p1"].delays.tolist() == [2.0, 5.0]
        assert samples["p2"].delays.tolist() == [4.0]
        assert "p3" not in samples and "p4" not in samples

    def test_delay_count_conservation(self):
        cs = [
            cascade("a", ("r", None, 0), ("x", "r", 1), ("y", "x", 2)),
            cascade("b", ("s", None, 0), ("z", "s", 4)),
        ]
        samples = extract_subcascades(cs)
        total = sum(s.n for s in samples.values())
        assert total == sum(c.size - 1 for c in cs)

    def test_users_without_children_get_no_sample(self):
        c = cascade("c", ("r", None, 0), ("leaf", "r", 1))
        assert "leaf" not in extract_subcascades([c])


class TestSubcascadeTable:
    def make(self):
        return extract_subcascades([
            cascade("c1", ("r", None, 0), ("x", "r", 4), ("y", "x", 5), ("z", "r", 6)),
            cascade("c2", ("x", None, 10), ("q", "x", 11)),
        ])

    def test_mapping_behaviour(self):
        table = self.make()
        assert isinstance(table, Mapping)
        assert list(table) == list(table.keys()) == ["r", "x"]
        assert len(table) == 2
        assert "x" in table and "q" not in table and 7 not in table
        assert table.get("q") is None
        with pytest.raises(KeyError):
            table["q"]
        with pytest.raises(TypeError):
            table["q"] = table["x"]
        with pytest.raises(TypeError):
            del table["x"]
        assert [s.user for s in table.values()] == ["r", "x"]
        assert {u: s.delays.tolist() for u, s in table.items()} == {
            "r": [5.0, 7.0], "x": [2.0, 2.0]}

    def test_arrays_are_flat_and_read_only(self):
        table = self.make()
        assert table.users == ["r", "x"]
        assert table.offsets.tolist() == [0, 2, 4]
        assert table.delays.tolist() == [5.0, 7.0, 2.0, 2.0]
        assert table.counts.tolist() == [2, 2]
        for a in (table.offsets, table.delays, table.log_delays, table.user_ids):
            with pytest.raises(ValueError):
                a[0] = 1
        sample = table["r"]
        sample.delays[0] = 99.0  # a sample read is the reader's own copy
        assert table["r"].delays.tolist() == [5.0, 7.0]

    def test_table_of_a_mapping_matches_extraction(self):
        table = self.make()
        rebuilt = SubcascadeTable.from_samples(dict(table))
        assert rebuilt.users == table.users
        assert rebuilt.offsets.tolist() == table.offsets.tolist()
        assert rebuilt.delays.tobytes() == table.delays.tobytes()

    def test_no_replies_gives_an_empty_table(self):
        table = extract_subcascades([cascade("c", ("r", None, 0))])
        assert len(table) == 0 and list(table) == [] and "r" not in table

    def test_first_bad_user_by_name_named(self):
        # a reply 2e308 s after its parent has a delay that overflows to inf
        cs = [cascade("c1", ("b", None, -1e308), ("b1", "b", 1e308)),
              cascade("c2", ("a", None, -1e308), ("a1", "a", 1e308), ("a2", "a1", 1e308))]
        with pytest.raises(DataError, match="user 'a' has nonpositive or non-finite delays"):
            with np.errstate(over="ignore"):
                extract_subcascades(cs)


class TestExtractFeatures:
    def test_isolated_user_is_all_ones(self):
        net = Network(nodes=["lonely"], edges=[])
        feats = extract_features(net, [])
        assert feats.names == list(FEATURE_SCHEMA)
        assert np.array_equal(feats.row("lonely"), np.ones(len(FEATURE_SCHEMA)))

    def test_uniform_weight_follower_aggregate(self):
        # u has followers f1..f3 whose own follower counts are 10, 20, 30;
        # nobody retweets, so the weights are uniform and the mean is 20 (+1).
        nodes = ["u", "f1", "f2", "f3"]
        edges = [("f1", "u"), ("f2", "u"), ("f3", "u")]
        for i, count in zip((1, 2, 3), (10, 20, 30)):
            for j in range(count):
                name = f"g{i}_{j}"
                nodes.append(name)
                edges.append((name, f"f{i}"))
        net = Network(nodes=nodes, edges=edges)
        feats = extract_features(net, [])
        row = dict(zip(feats.names, feats.row("u")))
        assert row["follower_count"] == 4.0  # 3 followers + 1
        assert row["avg_follower_follower_count"] == pytest.approx(21.0)

    def test_weighted_aggregate_matches_manual_oracle(self):
        # followers with retweet counts {0, 1, 3} -> weights (1, 2, 4)/7
        nodes = ["u", "f1", "f2", "f3", "src"]
        edges = [("f1", "u"), ("f2", "u"), ("f3", "u"),
                 ("f1", "src"), ("f2", "src"), ("f3", "src"),
                 ("x1", "f1"), ("x2", "f2"), ("x3", "f3"), ("x4", "f3")]
        nodes += ["x1", "x2", "x3", "x4"]
        net = Network(nodes=nodes, edges=edges)
        events = [("src", None, 0.0), ("f2", "src", 10.0)]
        c1 = cascade("c1", *events)
        c2 = cascade("c2", ("src", None, 100.0), ("f3", "src", 110.0))
        c3 = cascade("c3", ("src", None, 200.0), ("f3", "src", 210.0))
        c4 = cascade("c4", ("src", None, 300.0), ("f3", "src", 310.0))
        cascades = [c1, c2, c3, c4]
        feats = extract_features(net, cascades)
        row = dict(zip(feats.names, feats.row("u")))
        weights = np.array([1.0, 2.0, 4.0]) / 7.0
        follower_counts = np.array([1.0, 1.0, 2.0])  # x-followers of f1, f2, f3
        assert row["avg_follower_follower_count"] == pytest.approx(
            float(weights @ follower_counts) + 1.0)
        # inflow rate oracle: posts received by each f over the window in days
        window_days = max((310.0 - 0.0) / 86400.0, 1.0)
        posts_by_src = 4.0
        inflow = np.array([posts_by_src, posts_by_src, posts_by_src]) / window_days
        assert row["follower_avg_inflow_rate"] == pytest.approx(float(weights @ inflow) + 1.0)
        retweet_rate = np.array([0.0 / 4.0, 1.0 / 4.0, 3.0 / 4.0])
        assert row["follower_avg_retweet_rate"] == pytest.approx(
            float(weights @ retweet_rate) + 1.0)

    def test_history_features(self):
        net = Network(nodes=["r", "a", "b"], edges=[("a", "r"), ("b", "r")])
        cs = [
            cascade("c1", ("r", None, 0), ("a", "r", 1), ("b", "r", 2)),
            cascade("c2", ("r", None, 10), ("a", "r", 11)),
        ]
        feats = extract_features(net, cs)
        row = dict(zip(feats.names, feats.row("r")))
        assert row["historical_subcascade_count"] == 3.0  # 2 posts + 1
        assert row["avg_subcascade_size"] == pytest.approx(1.5 + 1.0)  # 3 children / 2 posts

    def test_unknown_cascade_user_rejected(self):
        net = Network(nodes=["a"], edges=[])
        with pytest.raises(DataError):
            extract_features(net, [cascade("c", ("ghost", None, 0))])

    def test_permutation_invariance(self):
        nodes = [f"n{i}" for i in range(6)]
        edges = [("n1", "n0"), ("n2", "n0"), ("n3", "n1"), ("n4", "n2"), ("n5", "n0")]
        cs = [
            cascade("c1", ("n0", None, 0), ("n1", "n0", 3), ("n2", "n0", 9)),
            cascade("c2", ("n1", None, 0), ("n3", "n1", 5)),
        ]
        a = extract_features(Network(nodes=nodes, edges=edges), cs)
        b = extract_features(Network(nodes=list(reversed(nodes)), edges=list(reversed(edges))),
                             list(reversed(cs)))
        assert a.users == b.users
        assert np.array_equal(a.values, b.values)

    def test_rows_strictly_positive(self):
        net = Network(nodes=["a", "b"], edges=[("a", "b")])
        feats = extract_features(net, [])
        assert np.all(feats.values >= 1.0)


class TestFilterCascades:
    def test_threshold_five(self):
        sizes = {3: None, 5: None, 12: None}
        cs = []
        for size in sizes:
            events = [("r", None, 0.0)] + [(f"u{i}", "r", float(i)) for i in range(1, size)]
            cs.append(cascade(f"c{size}", *events))
        kept = filter_cascades(cs, 5)
        assert sorted(c.size for c in kept) == [5, 12]

    def test_min_size_one_is_identity(self):
        cs = [cascade("c", ("r", None, 0))]
        assert filter_cascades(cs, 1) == cs

    def test_empty_input(self):
        assert filter_cascades([], 5) == []

    def test_invalid_min_size(self):
        with pytest.raises(ValueError):
            filter_cascades([], 0)


class TestFileFormats:
    def test_network_round_trip(self, tmp_path):
        net = Network(nodes=["a", "b", "lonely"], edges=[("a", "b")])
        path = tmp_path / "network.csv"
        write_network_csv(path, net)
        loaded = read_network_csv(path)
        assert loaded.nodes == net.nodes
        assert loaded.edges == net.edges

    def test_network_csv_lists_only_nodes_without_edges(self, tmp_path):
        # "f" only follows and "g" is only followed: neither gets a node-only row
        net = Network(nodes=["f", "g", "lonely", "z"], edges=[("f", "g")])
        path = tmp_path / "network.csv"
        write_network_csv(path, net)
        assert path.read_text().splitlines() == ["follower,followee", "f,g", "lonely,", "z,"]
        assert read_network_csv(path) == net

    def test_network_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("from,to\na,b\n")
        with pytest.raises(DataError):
            read_network_csv(path)

    def test_cascades_round_trip(self, tmp_path):
        cs = [
            cascade("c1", ("r", None, 0.0), ("a", "r", 1.5)),
            cascade("c2", ("s", None, 3.0)),
        ]
        path = tmp_path / "cascades.jsonl"
        write_cascades_jsonl(path, cs)
        loaded = read_cascades_jsonl(path)
        assert loaded == cs

    def test_cascade_bad_record(self, tmp_path):
        path = tmp_path / "cascades.jsonl"
        path.write_text('{"id": "c", "events": [{"u": "a"}]}\n')
        with pytest.raises(DataError):
            read_cascades_jsonl(path)

    def test_features_round_trip(self, tmp_path):
        net = Network(nodes=["a", "b"], edges=[("a", "b")])
        feats = extract_features(net, [])
        path = tmp_path / "features.csv"
        write_features_csv(path, feats)
        loaded = read_features_csv(path)
        assert loaded.users == feats.users
        assert loaded.names == feats.names
        assert np.array_equal(loaded.values, feats.values)
