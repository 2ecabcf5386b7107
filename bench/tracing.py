"""Spans around calls into the library's layers, recorded from outside it.

:class:`Tracer` wraps public functions of every ``diqkd_lab`` layer.  A
``from ... import`` copies a function into the importing module, so each
function is replaced wherever it is bound (found by identity across all
``diqkd_lab`` modules).  Every call records a span ``(name, start, end,
parent, cycle, attrs)``; spans stay in memory until the run ends.  Self
time is a span's duration minus the durations of its direct children, so
the self times of all spans add up to the duration of the root spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from time import perf_counter

WRAPPED_MARK = "__bench_wrapped__"

PHOTONICS_OPS = (
    "beamsplitter",
    "polarization_rotation",
    "loss_channel",
    "threshold_detect",
    "detection_probabilities",
    "tensor_modes",
    "bell_state_measurement",
    "qubit_amplifier",
    "polarization_correlation_table",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _n_branches(state) -> int:
    branches = getattr(state, "branches", None)
    return 1 if branches is None else len(branches)


def _branches_out(obj) -> int:
    """Branches in every mode state a photonics call returned."""
    from diqkd_lab.photonics import ModeMixture, ModeState

    if isinstance(obj, (ModeState, ModeMixture)):
        return _n_branches(obj)
    if isinstance(obj, tuple):
        return sum(_branches_out(item) for item in obj)
    for field in ("outcomes", "state", "conditional_state"):
        if hasattr(obj, field):
            return _branches_out(getattr(obj, field))
    return 0


def _photonics_attrs(args, kwargs, result) -> dict:
    from diqkd_lab.photonics import ModeMixture, ModeState

    states = [a for a in (*args, *kwargs.values()) if isinstance(a, (ModeState, ModeMixture))]
    return {
        "modes": states[0].n_modes,
        "n_max": states[0].n_max,
        "branches_in": sum(_n_branches(s) for s in states),
        "amplitudes_in": sum(_n_branches(s) * (s.n_max + 1) ** s.n_modes for s in states),
        "branches_out": _branches_out(result),
    }


def _attack_attrs(args, kwargs, result) -> dict:
    eta = float(_arg(args, kwargs, 0, "eta"))
    seed_value = 4.0 if 2 * eta - 1 <= 0 else min(4.0, 2.0 / (2 * eta - 1))
    return {"eta": eta, "improved": bool(result.chsh > seed_value + 1e-9)}


def _reconcile_attrs(args, kwargs, result) -> dict:
    return {
        "messages": len(result.messages),
        "leakage_bits": result.leakage_bits,
        "verified": bool(result.verified),
    }


def _session_attrs(args, kwargs, result) -> dict:
    key = result.alice_key_bits.size if result.status == "key" else 0
    return {"status": result.status, "key_bits": int(key)}


# (module, attribute, span name or None for "<layer>.<attribute>", attrs hook)
TARGETS = (
    ("diqkd_lab.qstate", "born_table", None, None),
    ("diqkd_lab.bellcert", "critical_efficiency", None, None),
    ("diqkd_lab.bellcert", "loophole_attack", None, _attack_attrs),
    ("diqkd_lab.bellcert", "loophole_attack_curve", None, None),
    ("diqkd_lab.bellcert", "minimize", None, lambda a, k, r: {"nfev": int(r.nfev)}),
    ("diqkd_lab.bellcert", "bin_no_click", None, None),
    *(("diqkd_lab.photonics", name, None, _photonics_attrs) for name in PHOTONICS_OPS),
    (
        "diqkd_lab.architectures",
        "run",
        lambda a, k: f"architectures.run.{_arg(a, k, 0, 'scenario').architecture}",
        None,
    ),
    ("diqkd_lab.keyproto", "simulate_rounds", None,
     lambda a, k, r: {"rounds": int(_arg(a, k, 1, "n_rounds"))}),
    ("diqkd_lab.keyproto", "sift", None, lambda a, k, r: {"raw_bits": int(r[0].size)}),
    ("diqkd_lab.keyproto", "estimate", None, None),
    ("diqkd_lab.keyproto", "reconcile", None, _reconcile_attrs),
    ("diqkd_lab.keyproto", "privacy_amplify", None,
     lambda a, k, r: {"ops": int(_arg(a, k, 0, "bits").size) * int(r.size)}),
    ("diqkd_lab.keyproto", "run_session", None, _session_attrs),
    ("diqkd_lab.keyproto", "serialize_transcript", None, None),
    ("diqkd_lab.cli", "main", None, None),
    ("diqkd_lab.cli", "parse_scenario_file", None, None),
)


def _default_name(module_name: str, attr: str) -> str:
    return f"{module_name.rsplit('.', 1)[1]}.{attr}"


def _library_modules() -> list:
    return [m for n, m in sys.modules.items() if n == "diqkd_lab" or n.startswith("diqkd_lab.")]


def leftover_wrappers() -> list[str]:
    """Names in the library still bound to a tracing wrapper."""
    from diqkd_lab.photonics import ModeState

    found = [
        f"{m.__name__}.{key}"
        for m in _library_modules()
        for key, value in vars(m).items()
        if hasattr(value, WRAPPED_MARK)
    ]
    if hasattr(vars(ModeState)["__post_init__"], WRAPPED_MARK):
        found.append("diqkd_lab.photonics.ModeState.__post_init__")
    return found


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.mode_states = 0
        self.cycle = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float, end: float, attrs: dict) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.cycle, attrs)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a harness span around the block."""
        index = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start, perf_counter(), {})

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            index = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(index, span_name, start, perf_counter(), {"error": type(exc).__name__})
                raise
            end = perf_counter()
            tracer._close(index, span_name, start, end, hook(args, kwargs, result) if hook else {})
            return result

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _library_modules()
        for module_name, attr, name, hook in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            span_name = name or _default_name(module_name, attr)
            wrapper = self._wrap(original, span_name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

        from diqkd_lab.photonics import ModeState

        post_init = vars(ModeState)["__post_init__"]

        def counted_post_init(state):
            self.mode_states += 1
            post_init(state)

        setattr(counted_post_init, WRAPPED_MARK, post_init)
        self._patches.append((ModeState, "__post_init__", post_init))
        ModeState.__post_init__ = counted_post_init

    def uninstall(self) -> None:
        """Restore every original binding and check that none is left wrapped."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        leftover = leftover_wrappers()
        if leftover:
            raise RuntimeError(f"tracing wrappers left installed: {leftover}")

    # -- aggregation ----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def layer_metrics(self, n_cycles: int) -> dict[str, float]:
        """Per-layer metrics, per traced cycle (counts and seconds)."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        attrs: dict[str, list[dict]] = defaultdict(list)
        for span, own in zip(self.spans, self.self_times()):
            name = span[0]
            calls[name] += 1
            self_s[name] += own
            attrs[name].append(span[5])

        def total(name, key):
            return sum(a.get(key, 0) for a in attrs[name])

        per = 1.0 / n_cycles
        wall = sum(s[2] - s[1] for s in self.spans if s[3] < 0)
        m: dict[str, float] = {}
        from diqkd_lab.architectures import ARCHITECTURES

        names = [name or _default_name(module, attr) for module, attr, name, _ in TARGETS]
        names = [n for n in names if isinstance(n, str)]
        names += [f"architectures.run.{a}" for a in ARCHITECTURES]
        for name in names:
            m[f"{name}.calls"] = calls[name] * per
            m[f"{name}.self_s"] = self_s[name] * per
            m[f"{name}.self_pct"] = 100.0 * self_s[name] / wall
        m["bellcert.minimize.nfev"] = total("bellcert.minimize", "nfev") * per
        attacks = attrs["bellcert.loophole_attack"]
        m["bellcert.attack.improved_frac"] = (
            sum(a.get("improved", False) for a in attacks) / len(attacks) if attacks else 0.0
        )
        photonic = [a for n in PHOTONICS_OPS for a in attrs[f"photonics.{n}"]]
        m["photonics.branches_in.sum"] = sum(a.get("branches_in", 0) for a in photonic) * per
        m["photonics.branches_out.max"] = max((a.get("branches_out", 0) for a in photonic), default=0)
        m["photonics.amplitudes_in.sum"] = sum(a.get("amplitudes_in", 0) for a in photonic) * per
        m["photonics.ModeState.count"] = self.mode_states * per
        m["keyproto.rounds"] = total("keyproto.simulate_rounds", "rounds") * per
        m["keyproto.raw_bits"] = total("keyproto.sift", "raw_bits") * per
        m["keyproto.reconcile.messages"] = total("keyproto.reconcile", "messages") * per
        m["keyproto.reconcile.leakage_bits"] = total("keyproto.reconcile", "leakage_bits") * per
        reconciles = attrs["keyproto.reconcile"]
        m["keyproto.reconcile.verified_frac"] = (
            sum(a.get("verified", False) for a in reconciles) / len(reconciles) if reconciles else 0.0
        )
        m["keyproto.privacy_amplify.ops"] = total("keyproto.privacy_amplify", "ops") * per
        m["keyproto.key_bits"] = total("keyproto.run_session", "key_bits") * per

        layers: dict[str, float] = defaultdict(float)
        for name, own in self_s.items():
            layers[name.split(".", 1)[0]] += own
        for layer in ("harness", "cli", "architectures", "photonics", "bellcert", "qstate", "keyproto"):
            m[f"{layer}.self_s"] = layers[layer] * per
        m["trace.wall_s"] = wall * per
        m["trace.self_sum_residual_s"] = abs(sum(layers.values()) - wall)
        return m
