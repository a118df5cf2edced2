"""Unit: task graphs — construction, implicit edges, validation."""

import pytest

from repro.compute import TaskGraph
from repro.core.errors import ConfigurationError


def noop(inputs):
    return None


class TestConstruction:
    def test_add_task_and_data(self):
        g = TaskGraph("g")
        g.add_data("x", 41, nbytes=10)
        spec = g.add_task("t", noop, inputs=("x",), cost_s=0.5)
        assert spec.output_key == "t"
        assert g.describe() == {"name": "g", "tasks": 1, "data_objects": 1,
                                "total_cost_s": 0.5}

    def test_duplicate_task_id_rejected(self):
        g = TaskGraph("g")
        g.add_task("t", noop)
        with pytest.raises(ConfigurationError, match="already added"):
            g.add_task("t", noop)

    def test_duplicate_data_key_rejected(self):
        g = TaskGraph("g")
        g.add_data("x", 1)
        with pytest.raises(ConfigurationError, match="already registered"):
            g.add_data("x", 2)

    def test_output_colliding_with_data_rejected(self):
        g = TaskGraph("g")
        g.add_data("x", 1)
        with pytest.raises(ConfigurationError, match="collides"):
            g.add_task("t", noop, output="x")

    def test_negative_cost_rejected(self):
        g = TaskGraph("g")
        with pytest.raises(ConfigurationError, match="negative cost"):
            g.add_task("t", noop, cost_s=-1.0)

    def test_duplicate_output_key_rejected(self):
        g = TaskGraph("g")
        g.add_task("a", noop, output="o")
        g.add_task("b", noop, output="o")
        with pytest.raises(ConfigurationError, match="produced by both"):
            g.validate()


class TestEdges:
    def test_input_key_adds_implicit_dependency(self):
        g = TaskGraph("g")
        g.add_task("producer", noop, output="obj")
        g.add_task("consumer", noop, inputs=("obj",))
        assert g.dependencies("consumer") == ("producer",)

    def test_explicit_and_implicit_deps_merge_without_dupes(self):
        g = TaskGraph("g")
        g.add_task("a", noop)
        g.add_task("b", noop, deps=("a",), inputs=("a",))
        assert g.dependencies("b") == ("a",)

    def test_validate_returns_topological_order(self):
        g = TaskGraph("g")
        g.add_task("z-last", noop, inputs=("mid",))
        g.add_task("a-first", noop, output="raw")
        g.add_task("m-mid", noop, inputs=("raw",), output="mid")
        assert g.validate() == ["a-first", "m-mid", "z-last"]


class TestProducers:
    def test_map_built_once_per_graph_shape(self, output_key_reads):
        g = TaskGraph("chain")
        g.add_task("t0", noop)
        for i in range(1, 8):
            g.add_task(f"t{i}", noop, inputs=(f"t{i - 1}",))
        order = g.validate()
        built = len(output_key_reads)
        for _ in range(3):
            assert g.validate() == order
            for task_id in order:
                g.dependencies(task_id)
        assert len(output_key_reads) == built    # queries reuse the map
        g.add_task("t8", noop, inputs=("t7",))
        g.add_task("t9", noop, inputs=("t8",))
        assert g.dependencies("t9") == ("t8",)   # add_task dropped it
        g.add_task("dup", noop, output="t0")
        with pytest.raises(ConfigurationError, match="produced by both"):
            g.validate()


class TestValidation:
    def test_unknown_dep_rejected(self):
        g = TaskGraph("g")
        g.add_task("t", noop, deps=("ghost",))
        with pytest.raises(ConfigurationError, match="unknown task 'ghost'"):
            g.validate()

    def test_unknown_input_rejected(self):
        g = TaskGraph("g")
        g.add_task("t", noop, inputs=("nowhere",))
        with pytest.raises(ConfigurationError,
                           match="no task produces and no graph data"):
            g.validate()

    def test_cycle_detected_with_typed_error_naming_tasks(self):
        g = TaskGraph("loopy")
        g.add_task("a", noop, deps=("c",))
        g.add_task("b", noop, deps=("a",))
        g.add_task("c", noop, deps=("b",))
        with pytest.raises(ConfigurationError,
                           match=r"cycle through \['a', 'b', 'c'\]"):
            g.validate()

    def test_self_cycle_detected(self):
        g = TaskGraph("g")
        g.add_task("a", noop, deps=("a",))
        with pytest.raises(ConfigurationError, match="cycle"):
            g.validate()

    def test_empty_graph_validates(self):
        assert TaskGraph("empty").validate() == []
