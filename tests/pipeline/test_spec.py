"""Tests for pipeline specifications (chains, DAGs, JSON round-trip)."""

from __future__ import annotations

import pytest

from repro.pipeline.applications import get_application, known_applications
from repro.pipeline.spec import ModuleSpec, PipelineSpec, chain


def _networkx_graph(spec: PipelineSpec):
    """The spec's declared edges as a networkx graph (the reference)."""
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(spec.module_ids)
    for mid in spec.module_ids:
        for s in spec.successors(mid):
            graph.add_edge(mid, s)
    return graph


def _networkx_order(spec: PipelineSpec) -> list[str]:
    import networkx as nx

    return list(nx.lexicographical_topological_sort(_networkx_graph(spec)))


class TestChainBuilder:
    def test_chain_structure(self):
        spec = chain("p", ["a", "b", "c"])
        assert spec.module_ids == ["m1", "m2", "m3"]
        assert spec.entry_ids == ["m1"]
        assert spec.exit_ids == ["m3"]
        assert spec.is_chain
        assert spec.successors("m1") == ("m2",)
        assert spec.predecessors("m3") == ("m2",)

    def test_single_module_chain(self):
        spec = chain("p", ["a"])
        assert spec.entry_ids == spec.exit_ids == ["m1"]

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            chain("p", [])

    def test_index_of(self):
        spec = chain("p", ["a", "b", "c"])
        assert spec.index_of("m2") == 1


class TestValidation:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PipelineSpec(
                name="bad",
                modules=[
                    ModuleSpec("m1", "a"),
                    ModuleSpec("m1", "b"),
                ],
            )

    def test_unknown_reference_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            PipelineSpec(
                name="bad",
                modules=[ModuleSpec("m1", "a", subs=("ghost",))],
            )

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            PipelineSpec(
                name="bad",
                modules=[
                    ModuleSpec("m1", "a", pres=("m2",), subs=("m2",)),
                    ModuleSpec("m2", "b", pres=("m1",), subs=("m1",)),
                ],
            )

    def test_reachable_cycle_rejected(self):
        # Every module is reachable from the entry m1, but m2 and m3 wait
        # on each other.
        with pytest.raises(ValueError, match="contains a cycle"):
            PipelineSpec(
                name="bad",
                modules=[
                    ModuleSpec("m1", "a", subs=("m2",)),
                    ModuleSpec("m2", "b", pres=("m1", "m3"), subs=("m3",)),
                    ModuleSpec("m3", "c", pres=("m2",), subs=("m2",)),
                ],
            )

    def test_inconsistent_edges_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            PipelineSpec(
                name="bad",
                modules=[
                    ModuleSpec("m1", "a", subs=("m2",)),
                    ModuleSpec("m2", "b", pres=()),  # missing mirror
                ],
            )

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            PipelineSpec(
                name="bad",
                modules=[ModuleSpec("m1", "a"), ModuleSpec("m2", "b")],
            )

    def test_duplicate_successor_edge_rejected(self):
        # nx would silently deduplicate m1->m2 twice, but the request flow
        # would deliver two tokens over it — reject at construction.
        with pytest.raises(ValueError, match="duplicate successor"):
            PipelineSpec(
                name="bad",
                modules=[
                    ModuleSpec("m1", "a", subs=("m2", "m2")),
                    ModuleSpec("m2", "b", pres=("m1",)),
                ],
            )

    def test_duplicate_predecessor_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate predecessor"):
            PipelineSpec(
                name="bad",
                modules=[
                    ModuleSpec("m1", "a", subs=("m2",)),
                    ModuleSpec("m2", "b", pres=("m1", "m1")),
                ],
            )

    def test_unreachable_cycle_named(self):
        # A cycle hanging off the reachable DAG: diagnosed as the
        # unreachable region it is, naming the modules.
        with pytest.raises(ValueError, match=r"unreachable.*\['m3', 'm4'\]"):
            PipelineSpec(
                name="bad",
                modules=[
                    ModuleSpec("m1", "a", subs=("m2",)),
                    ModuleSpec("m2", "b", pres=("m1", "m4")),
                    ModuleSpec("m3", "c", pres=("m4",), subs=("m4",)),
                    ModuleSpec("m4", "d", pres=("m3",), subs=("m2", "m3")),
                ],
            )

    def test_all_modules_with_preds_rejected(self):
        with pytest.raises(ValueError, match="no entry module"):
            PipelineSpec(
                name="bad",
                modules=[
                    ModuleSpec("m1", "a", pres=("m2",), subs=("m2",)),
                    ModuleSpec("m2", "b", pres=("m1",), subs=("m1",)),
                ],
            )


class TestDagPaths:
    def dag(self) -> PipelineSpec:
        return PipelineSpec(
            name="dag",
            modules=[
                ModuleSpec("m1", "a", subs=("m2", "m3")),
                ModuleSpec("m2", "b", pres=("m1",), subs=("m4",)),
                ModuleSpec("m3", "c", pres=("m1",), subs=("m4",)),
                ModuleSpec("m4", "d", pres=("m2", "m3")),
            ],
        )

    def test_not_a_chain(self):
        assert not self.dag().is_chain

    def test_paths_from_entry(self):
        paths = self.dag().paths_from("m1")
        assert sorted(paths) == [["m2", "m4"], ["m3", "m4"]]

    def test_paths_from_exit_is_empty_path(self):
        assert self.dag().paths_from("m4") == [[]]

    def test_paths_cached(self):
        spec = self.dag()
        assert spec.paths_from("m1") is spec.paths_from("m1")

    def test_downstream(self):
        assert self.dag().downstream("m1") == ["m2", "m3", "m4"]
        assert self.dag().downstream("m4") == []

    def test_topological_order_valid(self):
        spec = self.dag()
        order = spec.topological_order()
        assert order.index("m1") < order.index("m2") < order.index("m4")
        assert order.index("m1") < order.index("m3") < order.index("m4")


class TestFrozenStructure:
    """The precomputed DAG views must agree with a networkx recomputation."""

    def wide(self) -> PipelineSpec:
        # Two sequential forks feeding one join plus a diamond: exercises
        # nested reachability the per-edge accumulation must get right.
        return PipelineSpec(
            name="wide",
            modules=[
                ModuleSpec("s", "a", subs=("f1", "f2")),
                ModuleSpec("f1", "b", pres=("s",), subs=("j",)),
                ModuleSpec("f2", "c", pres=("s",), subs=("g1", "g2")),
                ModuleSpec("g1", "d", pres=("f2",), subs=("j",)),
                ModuleSpec("g2", "e", pres=("f2",), subs=("j",)),
                ModuleSpec("j", "f", pres=("f1", "g1", "g2"), subs=("t",)),
                ModuleSpec("t", "g", pres=("j",)),
            ],
        )

    def test_downstream_matches_networkx(self):
        import networkx as nx

        spec = self.wide()
        graph = _networkx_graph(spec)
        topo = _networkx_order(spec)
        for mid in spec.module_ids:
            reach = nx.descendants(graph, mid)
            assert spec.downstream(mid) == [m for m in topo if m in reach]
            assert spec.downstream_set(mid) == frozenset(reach)

    @pytest.mark.parametrize("name", known_applications())
    def test_topological_order_matches_networkx(self, name):
        spec = get_application(name).spec
        assert spec.topological_order() == _networkx_order(spec)

    def test_topological_order_ignores_declaration_order(self):
        # Declared z, m, c, y, a with two entries: the order is still the
        # lexicographic one (y, z, c, m, a), as networkx computes it.
        spec = PipelineSpec(
            name="shuffled",
            modules=[
                ModuleSpec("z", "a", subs=("m", "c")),
                ModuleSpec("m", "b", pres=("z",), subs=("a",)),
                ModuleSpec("c", "c", pres=("z", "y"), subs=("a",)),
                ModuleSpec("y", "d", subs=("c",)),
                ModuleSpec("a", "e", pres=("m", "c")),
            ],
        )
        assert spec.topological_order() == ["y", "z", "c", "m", "a"]
        assert spec.topological_order() == _networkx_order(spec)

    def test_downstream_returns_fresh_list(self):
        spec = self.wide()
        first = spec.downstream("s")
        first.append("corrupted")
        assert "corrupted" not in spec.downstream("s")

    def test_topological_order_returns_fresh_list(self):
        spec = self.wide()
        order = spec.topological_order()
        original = list(order)
        order.clear()
        assert spec.topological_order() == original

    def test_token_flow_tables(self):
        spec = self.wide()
        assert spec.join_ids == ("j",)
        assert set(spec.fork_ids) == {"s", "f2"}
        assert spec.exit_count == 1
        assert spec.in_degree("j") == 3
        assert spec.in_degree("s") == 0
        assert spec.in_degree("t") == 1

    def test_edge_kill_plan_single_branch(self):
        spec = self.wide()
        # Not routing s -> f1 kills f1 only; j survives one token short.
        plan = spec.edge_kill_plan("s", "f1")
        assert plan.dead == ("f1",)
        assert plan.dead_exits == 0
        assert plan.join_deltas == (("j", 1),)
        # Not routing f2 -> g1 kills g1 only, same border join.
        plan = spec.edge_kill_plan("f2", "g1")
        assert plan.dead == ("g1",)
        assert plan.join_deltas == (("j", 1),)

    def test_edge_kill_plan_kills_nested_fork(self):
        spec = self.wide()
        # Not routing s -> f2 kills the whole nested fork: g1 and g2 can
        # never receive a token, so j loses two of its three in-edges.
        plan = spec.edge_kill_plan("s", "f2")
        assert set(plan.dead) == {"f2", "g1", "g2"}
        assert plan.dead_exits == 0
        assert plan.join_deltas == (("j", 2),)

    def test_edge_kill_plan_non_fork_edge_raises(self):
        spec = self.wide()
        with pytest.raises(ValueError, match="not a fork edge"):
            spec.edge_kill_plan("j", "t")
        with pytest.raises(ValueError, match="not a fork edge"):
            spec.edge_kill_plan("s", "t")

    def test_death_plan_propagates_to_exit(self):
        spec = self.wide()
        # If j never executes, everything downstream of it dies too.
        plan = spec.death_plan("j")
        assert plan.dead == ("t",)
        assert plan.dead_exits == 1
        assert plan.join_deltas == ()
        # An exit's death plan is empty (nothing downstream).
        assert spec.death_plan("t").dead == ()

    def test_index_of_unknown_raises(self):
        with pytest.raises(ValueError):
            self.wide().index_of("nope")

    def test_chain_has_no_joins_or_forks(self):
        spec = chain("c", ["a", "b", "c"])
        assert spec.join_ids == ()
        assert spec.fork_ids == ()
        assert spec.exit_count == 1
        for mid in spec.module_ids:
            assert spec.in_degree(mid) <= 1


class TestJsonRoundTrip:
    def test_round_trip(self):
        spec = chain("rt", ["a", "b"])
        clone = PipelineSpec.from_json(spec.to_json())
        assert clone.name == "rt"
        assert clone.module_ids == spec.module_ids
        assert clone["m1"].model == "a"
        assert clone.successors("m1") == ("m2",)

    def test_from_file(self, tmp_path):
        spec = chain("ff", ["a", "b", "c"])
        path = tmp_path / "pipe.json"
        path.write_text(spec.to_json())
        loaded = PipelineSpec.from_file(path)
        assert loaded.module_ids == spec.module_ids

    def test_contains_and_getitem(self):
        spec = chain("p", ["a"])
        assert "m1" in spec
        assert "mX" not in spec
        assert spec["m1"].model == "a"
        assert len(spec) == 1
