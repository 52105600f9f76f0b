"""Random hybrid automata for property tests.

Builds nothing when imported, so a test module that draws these systems
still collects when a model of the case study fails to build.
"""

from hypothesis import strategies as st

from hdsf.hybrid import Guard, HybridSystem, RateForm, StateExpr
from hdsf.stl import And, Atom, Not, Or


OPAQUE_PARAMETERS = ("q0", "q1")  # parameters only opaque callables look up


@st.composite
def small_systems(draw, declared=False):
    """Up to three modes over up to three signals, with affine rates,
    threshold guards with random targets, and constant or affine resets.

    With ``declared``, a mode may also rate by declared forms, constant or
    clamped at the rated signal's level, and guard by conditions whose
    thresholds may name drawn parameters: a mode declares all of its
    rates and guards, none, or a random mix, and initial values may be
    signed zeros.  An opaque rate's offset or guard's bound may then be a
    lookup of one of ``OPAQUE_PARAMETERS``, by ``p[name]``, by
    ``p.get(name, default)`` or by ``name in p``; only the first makes
    sure the name is drawn.  The case then ends with the drawn parameters."""
    signals = ("x", "y", "z")[:draw(st.integers(1, 3))]
    modes = [f"M{i}" for i in range(draw(st.integers(1, 3)))]
    unit = st.floats(-1.0, 1.0)
    value = st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-2.0, 2.0))
    signal = st.sampled_from(signals)
    params = {}

    def constant(c):
        """``c`` as a function of the parameters, or a lookup of one."""
        if not declared or draw(st.booleans()):
            return lambda p: c
        name, how = draw(st.sampled_from(OPAQUE_PARAMETERS)), draw(st.sampled_from("[gi"))
        if how == "[" or draw(st.booleans()):
            params.setdefault(name, draw(value))
        if how == "[":
            return lambda p: p[name]
        if how == "g":
            return lambda p: p.get(name, c)
        return lambda p: c if name in p else 0.5 - c

    def affine():
        src, a, b = draw(signal), draw(unit), constant(draw(unit))
        return StateExpr(lambda s, p, src=src, a=a, b=b: a * s[src] + b(p),
                         reads=frozenset({src}))

    def form(name):
        rate = draw(value)
        if draw(st.booleans()):
            return StateExpr(form=RateForm(rate))
        return StateExpr(form=RateForm(rate, name, draw(value)))

    def threshold():
        bound = draw(value)
        if draw(st.booleans()):
            return bound
        name = f"c{len(params)}"
        params[name] = bound
        return name

    def condition():
        atoms = [Atom(draw(signal), draw(st.sampled_from(["<=", "<", ">=", ">", "=="])),
                      threshold()) for _ in range(2)]
        kind = draw(st.sampled_from(["atom", "not", "and", "or"]))
        if kind == "atom":
            return atoms[0]
        return Not(atoms[0]) if kind == "not" else {"and": And, "or": Or}[kind](*atoms)

    def reset_value():
        if draw(st.booleans()):
            return affine()
        c = draw(unit)
        return StateExpr(lambda s, p, c=c: c)

    dynamics, guards = {}, {}
    for mode in modes:
        kind = draw(st.sampled_from(["opaque", "declared", "mixed"])) if declared else "opaque"

        def declares():
            return kind == "declared" or kind == "mixed" and draw(st.booleans())

        rated = draw(st.lists(signal, unique=True))
        dynamics[mode] = {n: form(n) if declares() else affine() for n in rated}
        guards[mode] = []
        for j in range(draw(st.integers(0, 2))):
            if declares():
                guards[mode].append(Guard(
                    f"g{j}", None, draw(st.sampled_from(modes)),
                    {n: reset_value() for n in draw(st.lists(signal, unique=True, max_size=2))},
                    condition=condition()))
                continue
            src, bound = draw(signal), constant(draw(st.floats(-2.0, 2.0)))
            above, written = draw(st.booleans()), draw(st.lists(signal, unique=True, max_size=2))
            guards[mode].append(Guard(
                f"g{j}", lambda s, p, src=src, c=bound, up=above: (s[src] >= c(p)) == up,
                draw(st.sampled_from(modes)), {n: reset_value() for n in written},
                reads=frozenset({src})))
    system = HybridSystem(
        signal_names=signals, dynamics=dynamics,
        guards={m: tuple(g) for m, g in guards.items()},
        initial_mode=draw(st.sampled_from(modes)))
    initial = draw(st.lists(value if declared else st.floats(-2.0, 2.0),
                            min_size=len(signals), max_size=len(signals)))
    dt = draw(st.sampled_from([0.1, 0.25, 0.5]))
    case = system, initial, dt, dt * draw(st.integers(1, 40))
    return case + (params,) if declared else case
