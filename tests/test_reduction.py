"""Relevance closure, mode pruning, and surrogate assembly."""

import numpy as np
import pytest

from hdsf.drone import ControllerVariant, DroneParams, build_full_system, phi_for
from hdsf.errors import ConfigurationError, ReductionError, SpecificationError
from hdsf.hybrid import Guard, HybridSystem, StateExpr
from hdsf.reduction import build_surrogate, relevant_modes, relevant_signals
from hdsf.stl import And, Atom, Globally


def chain_system(rates_reads, guard_reads=None):
    """Three-mode chain A -> B -> C over signals a, b, c with declared reads."""
    signals = ("a", "b", "c")
    rates = {
        sig: StateExpr(lambda s, p: 0.0, reads=frozenset(reads))
        for sig, reads in rates_reads.items()
    }
    dynamics = {m: rates for m in ("A", "B", "C")}
    guard_reads = guard_reads or {}
    g_ab = Guard("ab", lambda s, p: True, "B",
                 reads=frozenset(guard_reads.get("ab", {"a"})))
    g_bc = Guard("bc", lambda s, p: True, "C",
                 reads=frozenset(guard_reads.get("bc", {"a"})))
    return HybridSystem(
        signal_names=signals,
        dynamics=dynamics,
        guards={"A": (g_ab,), "B": (g_bc,), "C": ()},
        initial_mode="A",
    )


class TestRelevantSignals:
    def test_drone_closure_is_exactly_the_three_signals(self):
        full = build_full_system(DroneParams(), ControllerVariant.BUGGY)
        closure = relevant_signals(phi_for, full)
        assert closure == {"battery", "altitude", "deployed_flag"}

    def test_formula_over_every_signal_gives_full_closure(self):
        full = build_full_system(DroneParams(), ControllerVariant.BUGGY)
        formula = Globally(And(Atom("x", ">", 0.0),
                               And(Atom("y", ">", 0.0),
                                   And(Atom("altitude", ">", 0.0),
                                       And(Atom("vx", ">", 0.0),
                                           And(Atom("vy", ">", 0.0),
                                               And(Atom("vz", ">", 0.0),
                                                   And(Atom("battery", ">", 0.0),
                                                       Atom("deployed_flag")))))))))
        assert relevant_signals(formula, full) == set(full.signal_names)

    def test_chain_excludes_signal_feeding_nothing(self):
        # a reads b; b reads nothing; c reads a but nothing reads c
        system = chain_system({"a": {"b"}, "b": set(), "c": {"a"}})
        closure = relevant_signals(Globally(Atom("a", ">", 0.0)), system)
        # oracle: exhaustive walk over the hand-built dependency edges
        edges = {"a": {"b"}, "b": set(), "c": {"a"}}
        expected, frontier = {"a"}, ["a"]
        while frontier:
            for dep in edges[frontier.pop()]:
                if dep not in expected:
                    expected.add(dep)
                    frontier.append(dep)
        assert closure == expected == {"a", "b"}

    def test_unknown_atom_signal_raises(self):
        system = chain_system({"a": set()})
        with pytest.raises(SpecificationError, match="unknown"):
            relevant_signals(Globally(Atom("zz", ">", 0.0)), system)

    def test_guard_reads_join_when_reset_writes_kept_signal(self):
        signals = ("a", "b", "c")
        dyn = {m: {} for m in ("A", "B")}
        guard = Guard("g", lambda s, p: True, "B",
                      {"a": StateExpr(lambda s, p: 1.0, reads=frozenset({"b"}))},
                      reads=frozenset({"c"}))
        system = HybridSystem(
            signal_names=signals,
            dynamics=dyn,
            guards={"A": (guard,), "B": ()},
            initial_mode="A",
        )
        closure = relevant_signals(Globally(Atom("a", ">", 0.0)), system)
        assert closure == {"a", "b", "c"}


class TestRelevantModes:
    def test_drone_reduction_keeps_goto_and_parachute(self):
        full = build_full_system(DroneParams(), ControllerVariant.BUGGY)
        signals = relevant_signals(phi_for, full)
        report = relevant_modes(full, signals, entry_mode="GOTO")
        assert report.modes_kept == {"GOTO", "PARACHUTE"}
        assert report.modes_dropped == {"IDLE", "TAKE_OFF", "LAND"}
        assert report.guards_kept["GOTO"] == ("battery_critical",)

    def test_all_modes_relevant_keeps_everything(self):
        system = chain_system({"a": set(), "b": set(), "c": set()})
        report = relevant_modes(system, frozenset({"a", "b", "c"}))
        assert report.modes_kept == {"A", "B", "C"}
        assert report.modes_dropped == set()

    def test_chain_drop_by_unreachability(self):
        # B's only outgoing guard reads a dropped signal, so C is unreachable
        system = chain_system({"a": set(), "b": set(), "c": set()},
                              guard_reads={"ab": {"a"}, "bc": {"c"}})
        signals = frozenset({"a", "b"})
        report = relevant_modes(system, signals)
        # oracle: breadth-first reachability over guards whose reads survive
        adjacency = {"A": ["B"], "B": [], "C": []}  # bc guard reads dropped c
        reachable, frontier = {"A"}, ["A"]
        while frontier:
            for nxt in adjacency[frontier.pop()]:
                if nxt not in reachable:
                    reachable.add(nxt)
                    frontier.append(nxt)
        assert "C" not in reachable
        assert "C" in report.modes_dropped
        assert report.modes_kept <= reachable

    def test_entry_mode_dropped_raises(self):
        # entry writes nothing relevant and reaches nothing relevant
        signals = ("a", "b")
        dyn_work = {"a": StateExpr(lambda s, p: 1.0, reads=frozenset())}
        system = HybridSystem(
            signal_names=signals,
            dynamics={"IDLE": {}, "WORK": dyn_work},
            guards={"IDLE": (Guard("go", lambda s, p: True, "WORK",
                                   reads=frozenset({"b"})),), "WORK": ()},
            initial_mode="IDLE",
        )
        with pytest.raises(ReductionError, match="entry"):
            relevant_modes(system, frozenset({"a"}), entry_mode="IDLE")

    def test_report_completeness(self):
        full = build_full_system(DroneParams(), ControllerVariant.BUGGY)
        signals = relevant_signals(phi_for, full)
        report = relevant_modes(full, signals, entry_mode="GOTO")
        all_modes = set(full.dynamics)
        assert report.modes_kept | report.modes_dropped == all_modes
        assert not report.modes_kept & report.modes_dropped
        for mode in all_modes:
            assert f"mode:{mode}" in report.reasons

    def test_report_serializes_to_json(self):
        import json
        full = build_full_system(DroneParams(), ControllerVariant.BUGGY)
        signals = relevant_signals(phi_for, full)
        report = relevant_modes(full, signals, entry_mode="GOTO")
        data = json.loads(report.to_json())
        assert data["modes_kept"] == ["GOTO", "PARACHUTE"]
        assert data["signals_kept"] == ["altitude", "battery", "deployed_flag"]
        assert data["entry_mode"] == "GOTO"
        assert all(isinstance(v, str) for v in data["reasons"].values())

    def test_monotonicity_on_drone(self):
        full = build_full_system(DroneParams(), ControllerVariant.BUGGY)
        base = frozenset({"battery", "altitude", "deployed_flag"})
        kept_base = relevant_modes(full, base, entry_mode="GOTO").modes_kept
        for extra in ({"x"}, {"x", "y"}, {"vx", "vz"}, {"x", "y", "vx", "vy", "vz"}):
            larger = base | extra
            kept_larger = relevant_modes(full, larger, entry_mode="GOTO").modes_kept
            assert kept_base <= kept_larger

    def test_monotonicity_on_random_systems(self):
        rng = np.random.default_rng(404)
        names = ["a", "b", "c", "d"]
        for _ in range(50):
            n_modes = int(rng.integers(2, 6))
            mode_names = [f"M{i}" for i in range(n_modes)]
            signals = tuple(names)
            dynamics = {}
            guards = {}
            for m in mode_names:
                rates = {}
                for sig in names:
                    if rng.random() < 0.5:
                        reads = frozenset(s for s in names if rng.random() < 0.3)
                        rates[sig] = StateExpr(lambda s, p: 0.0, reads=reads)
                dynamics[m] = rates
                gs = []
                for g_i in range(int(rng.integers(0, 3))):
                    reads = frozenset(s for s in names if rng.random() < 0.35)
                    target = mode_names[int(rng.integers(n_modes))]
                    gs.append(Guard(f"g{g_i}", lambda s, p: False, target, reads=reads))
                guards[m] = tuple(gs)
            system = HybridSystem(
                signal_names=signals,
                dynamics=dynamics, guards=guards,
                initial_mode="M0")
            small = frozenset(s for s in names if rng.random() < 0.5) or frozenset({"a"})
            large = small | frozenset(s for s in names if rng.random() < 0.5)
            try:
                kept_small = relevant_modes(system, small).modes_kept
            except ReductionError:
                continue
            kept_large = relevant_modes(system, large).modes_kept
            assert kept_small <= kept_large


class TestBuildSurrogate:
    def test_drone_surrogate_structure(self):
        params = DroneParams()
        full = build_full_system(params, ControllerVariant.BUGGY)
        rs = build_surrogate(full, phi_for, entry_mode="GOTO")
        assert list(rs.system.dynamics) == ["GOTO", "PARACHUTE"]
        assert rs.system.signal_names == ("altitude", "battery", "deployed_flag")
        assert rs.system.initial_mode == "GOTO"
        labels = [g.label for g in rs.system.guards["GOTO"]]
        assert labels == ["battery_critical"]

    def test_full_closure_formula_keeps_structure(self):
        full = build_full_system(DroneParams(), ControllerVariant.BUGGY)
        formula = Globally(And(Atom("x", ">", -1e9),
                               And(Atom("y", ">", -1e9),
                                   And(Atom("vx", ">", -1e9),
                                       And(Atom("vy", ">", -1e9),
                                           And(Atom("vz", ">", -1e9),
                                               And(Atom("battery", ">", -1e9),
                                                   And(Atom("altitude", ">", -1e9),
                                                       Atom("deployed_flag")))))))))
        rs = build_surrogate(full, formula)
        assert rs.system.structure_summary() == full.structure_summary()

    def test_condensed_rate_for_dropped_signal_rejected(self):
        # building the reduced system rejects a condensed rate that rates
        # or reads a signal the reduction dropped
        full = build_full_system(DroneParams(), ControllerVariant.BUGGY)
        for wrong, message in (
                ({"x": StateExpr(lambda s, p: 1.0)},
                 r"rates of mode GOTO for undeclared signals: \['x'\]"),
                ({"battery": StateExpr(lambda s, p: -s["vx"], reads=frozenset({"vx"}))},
                 r"rate of 'battery' in mode GOTO reads undeclared signals: \['vx'\]")):
            with pytest.raises(ConfigurationError, match=message):
                build_surrogate(full, phi_for,
                                condensed_dynamics={"GOTO": wrong}, entry_mode="GOTO")

    def test_empty_condensed_mode_has_no_rates(self):
        # a condensed entry replaces the mode's rates even when it is empty
        full = build_full_system(DroneParams(), ControllerVariant.BUGGY)
        rs = build_surrogate(full, phi_for, condensed_dynamics={"GOTO": {}},
                             entry_mode="GOTO")
        assert rs.system.dynamics["GOTO"] == {}
        assert set(rs.system.dynamics["PARACHUTE"]) == {"altitude"}

    def test_idempotence(self):
        params = DroneParams()
        full = build_full_system(params, ControllerVariant.BUGGY)
        once = build_surrogate(full, phi_for, entry_mode="GOTO")
        twice = build_surrogate(once.system, phi_for)
        assert twice.system.structure_summary() == once.system.structure_summary()
        assert twice.report.modes_dropped == frozenset()

