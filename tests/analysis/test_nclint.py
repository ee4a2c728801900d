"""Fixture tests for every nclint rule.

Each rule must (a) fire on a seeded violation snippet and (b) stay
silent on the equivalent clean snippet — and the whole rule set must be
silent on the real tree (`test_clean_tree`), which is what makes the
CI analysis job a meaningful gate rather than a tautology.
"""

from __future__ import annotations

import pathlib
import textwrap

from repro.analysis import nclint

CORE_MODULE = "repro.core.simulator"


def codes(source: str, module: str = CORE_MODULE,
          select: list[str] | None = None) -> set[str]:
    violations = nclint.lint_source(textwrap.dedent(source), module,
                                    select=select)
    return {v.code for v in violations}


def test_rule_registry_is_populated():
    catalogue = nclint.rule_catalogue()
    got = {entry["code"] for entry in catalogue}
    assert {"NC101", "NC102", "NC103", "NC104", "NC105", "NC106",
            "NC107", "NC108", "NC109", "NC110", "NC111"} <= got
    # Every entry documents itself.
    for entry in catalogue:
        assert entry["title"] and entry["rationale"]


# -- NC101: wall-clock / entropy ------------------------------------------

def test_nc101_fires_on_wall_clock_call():
    assert "NC101" in codes("""
        import time

        def step(self):
            return time.perf_counter()
        """)


def test_nc101_fires_on_random_import():
    assert "NC101" in codes("import random\n")


def test_nc101_silent_outside_cycle_model():
    assert "NC101" not in codes("import time\nt = time.time()\n",
                                module="repro.experiments.runner")


def test_nc101_pragma_waives_with_reason():
    source = """
        import time

        start = time.perf_counter()  # nclint: allow(NC101) host timing
        """
    assert "NC101" not in codes(source)


# -- NC102: obs layering ---------------------------------------------------

def test_nc102_fires_on_exporter_import():
    assert "NC102" in codes("from repro.obs.export import write_csv\n")


def test_nc102_allows_tracer_protocol():
    assert "NC102" not in codes(
        "from repro.obs.tracer import Tracer\n"
        "from repro.obs.attribution import attribute_layers\n")


# -- NC103: nn -> core ban -------------------------------------------------

def test_nc103_fires_on_nn_importing_core():
    assert "NC103" in codes("from repro.core.config import NeurocubeConfig\n",
                            module="repro.nn.layers.dense")


def test_nc103_silent_on_core_importing_nn():
    # The dependency is one-directional: core may use the nn reference.
    assert "NC103" not in codes("from repro.nn.activations import relu\n",
                                module="repro.core.simulator")


# -- NC104: scheduler contract --------------------------------------------

def test_nc104_fires_on_half_contract():
    assert "NC104" in codes("""
        class Vault:
            def next_event_delta(self):
                return 1
        """)


def test_nc104_silent_on_full_contract():
    assert "NC104" not in codes("""
        class Vault:
            def next_event_delta(self):
                return 1

            def skip(self, cycles):
                pass
        """)


# -- NC105: guarded tracer emits ------------------------------------------

def test_nc105_fires_on_unguarded_emit():
    assert "NC105" in codes("""
        class PE:
            def fire(self):
                self._tracer.mac_fire(self.cycle, 0)
        """)


def test_nc105_silent_on_guarded_emit():
    assert "NC105" not in codes("""
        class PE:
            def fire(self):
                if self._tracer is not None:
                    self._tracer.mac_fire(self.cycle, 0)
        """)


def test_nc105_early_return_narrowing():
    assert "NC105" not in codes("""
        class PE:
            def fire(self):
                if self._tracer is None:
                    return
                self._tracer.mac_fire(self.cycle, 0)
        """)


def test_nc105_nested_function_starts_unguarded():
    assert "NC105" in codes("""
        class PE:
            def fire(self):
                if self._tracer is not None:
                    def emit():
                        self._tracer.mac_fire(0, 0)
        """)


# -- NC106: ambient environment -------------------------------------------

def test_nc106_fires_on_environ_read():
    assert "NC106" in codes("""
        import os

        depth = os.environ.get("BUF_DEPTH", "16")
        """)


def test_nc106_fires_on_getenv():
    assert "NC106" in codes("import os\nx = os.getenv('X')\n")


# -- NC107: bare asserts ---------------------------------------------------

def test_nc107_fires_on_bare_assert():
    assert "NC107" in codes("assert 1 + 1 == 2\n")


def test_nc107_silent_on_typed_raise():
    assert "NC107" not in codes("""
        from repro.errors import ConfigurationError

        def check(x):
            if x < 0:
                raise ConfigurationError(f"negative {x}")
        """)


# -- NC108: ambient RNG ----------------------------------------------------

def test_nc108_fires_on_random_import():
    # Both rules fire: NC101 bans the import as entropy, NC108 points at
    # the deterministic replacement.
    assert {"NC101", "NC108"} <= codes("import random\n")


def test_nc108_fires_on_numpy_random_from_import():
    assert "NC108" in codes("from numpy.random import default_rng\n")


def test_nc108_fires_on_from_numpy_import_random():
    assert "NC108" in codes("from numpy import random\n")


def test_nc108_fires_on_aliased_import():
    assert "NC108" in codes("import numpy.random as npr\n")


def test_nc108_fires_on_from_random_import_name():
    assert "NC108" in codes("from random import gauss\n")


def test_nc108_applies_to_faults_package():
    assert "NC108" in codes("import random\n",
                            module="repro.faults.injector")


def test_nc108_silent_on_deterministic_rng():
    assert "NC108" not in codes(
        "from repro.faults.rng import DeterministicRNG\n",
        module="repro.faults.injector")


def test_nc108_silent_outside_cycle_model():
    assert "NC108" not in codes("import numpy.random\n",
                                module="repro.experiments.fig_resilience")


def test_nc108_pragma_waives_with_reason():
    source = """
        # nclint: allow(NC101,NC108) host-side shuffling only
        import random
        """
    assert codes(source) == set()


# -- NC109: ad-hoc persistence --------------------------------------------

def test_nc109_fires_on_pickle_import():
    assert "NC109" in codes("import pickle\n")


def test_nc109_fires_on_from_pickle_import():
    assert "NC109" in codes("from pickle import dumps\n")


def test_nc109_fires_on_open_call():
    assert "NC109" in codes("""
        def snapshot(self, path):
            with open(path, "wb") as handle:
                handle.write(b"state")
        """)


def test_nc109_fires_on_path_open_call():
    assert "NC109" in codes("""
        def snapshot(self, path):
            with path.open("wb") as handle:
                handle.write(b"state")
        """)


def test_nc109_silent_in_memo_store():
    assert "NC109" not in codes("import pickle\nopen('x')\n",
                                module="repro.memo.store")


def test_nc109_silent_in_checkpoint_module():
    assert "NC109" not in codes("import pickle\n",
                                module="repro.faults.checkpoint")


def test_nc109_silent_outside_cycle_model():
    assert "NC109" not in codes("import pickle\nopen('x')\n",
                                module="repro.experiments.runner")


def test_nc109_applies_to_memo_package_otherwise():
    # Only the store module itself is exempt, not the whole package.
    assert "NC109" in codes("import pickle\n",
                            module="repro.memo.session")


# -- NC111: unordered folds ------------------------------------------------

def test_nc111_fires_on_for_over_set_literal():
    assert "NC111" in codes("""
        def drain(self):
            for cube in {self.left, self.right}:
                cube.step()
        """)


def test_nc111_fires_on_for_over_set_call():
    assert "NC111" in codes("""
        def drain(self, pending):
            for cube in set(pending):
                cube.step()
        """)


def test_nc111_fires_on_comprehension_over_set_comp():
    assert "NC111" in codes("""
        def fold(self, outcomes):
            return [o.cycles for o in {o for o in outcomes}]
        """)


def test_nc111_fires_on_sum_over_set():
    assert "NC111" in codes("""
        def total(self, sent):
            return sum({b for b in sent})
        """)


def test_nc111_fires_on_join_over_set():
    assert "NC111" in codes("""
        def label(self, names):
            return ",".join(set(names))
        """)


def test_nc111_fires_on_popitem():
    assert "NC111" in codes("""
        def drain(self, queue):
            while queue:
                key, outcome = queue.popitem()
        """)


def test_nc111_silent_on_sorted_view():
    assert "NC111" not in codes("""
        def fold(self, outcomes):
            total = 0
            for key in sorted(set(outcomes)):
                total += outcomes[key]
            return sum(sorted({o for o in outcomes}))
        """)


def test_nc111_silent_on_list_iteration():
    assert "NC111" not in codes("""
        def fold(self, outcomes):
            return sum(o.cycles for o in outcomes)
        """)


def test_nc111_silent_outside_cycle_model():
    assert "NC111" not in codes("for x in {1, 2}:\n    pass\n",
                                module="repro.experiments.runner")


def test_nc111_pragma_waives_with_reason():
    source = """
        def drain(self):
            for cube in {self.left}:  # nclint: allow(NC111) singleton
                cube.step()
        """
    assert "NC111" not in codes(source)


# -- machinery -------------------------------------------------------------

def test_select_restricts_rules():
    source = "import random\nassert True\n"
    assert codes(source, select=["NC107"]) == {"NC107"}


def test_violation_format_is_clickable():
    violations = nclint.lint_source("import random\n", CORE_MODULE,
                                    path="src/repro/core/x.py")
    assert violations
    assert violations[0].format().startswith("src/repro/core/x.py:1:")


def test_syntax_error_reports_not_crashes():
    violations = nclint.lint_source("def broken(:\n", CORE_MODULE)
    assert [v.code for v in violations] == ["NC100"]
    assert "syntax" in violations[0].message.lower()


def test_report_dict_shape():
    violations = nclint.lint_source("import random\n", CORE_MODULE)
    report = nclint.report_dict(violations, files_checked=1)
    assert report["kind"] == "nclint-report"
    assert report["violation_count"] == len(violations)
    assert report["counts_by_code"].get("NC101")


def test_clean_tree():
    """The real tree carries zero violations — the CI gate invariant."""
    package = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
    violations, files_checked = nclint.lint_paths([package])
    assert files_checked > 50
    assert violations == [], "\n".join(v.format() for v in violations)


# -- self-test corpus ------------------------------------------------------

def test_self_test_passes():
    """Every registered rule fires on its seeded fixture and is
    waivable — the `nclint --self-test` CI gate."""
    assert nclint.self_test() == []
