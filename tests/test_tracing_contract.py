"""The benchmark's tracer must fit the library it wraps.

``bench/tracing.py`` hooks library functions by name and reads their
arguments and return values; a renamed function or argument, or a changed
return shape, would otherwise only surface in a traced benchmark run.  The
tests read that file and never change it.
"""

import importlib
import importlib.util
from pathlib import Path

from diqkd_lab import architectures, keyproto, photonics
from diqkd_lab.architectures import ARCHITECTURES, Scenario

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Tracer.install() looks every target module up in sys.modules.
    for module_name, _, _, _ in module.TARGETS:
        importlib.import_module(module_name)
    return module


def test_tracing_targets_resolve_in_the_library():
    tracing = load_tracing()
    for module_name, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            f"{module_name}.{attr}"
        )


def test_traced_session_runs_every_keyproto_hook():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        # Large enough to reach a key, so reconcile and privacy_amplify run.
        outcome = keyproto.run_session(architectures.run(Scenario()), 60_000, 42, sample_fraction=0.5)
        keyproto.serialize_transcript(outcome.transcript)
    finally:
        tracer.uninstall()
    assert tracing.leftover_wrappers() == []
    assert outcome.status == "key"
    errors = [span for span in tracer.spans if "error" in span[5]]
    assert errors == []
    traced = {span[0] for span in tracer.spans}
    stages = {
        f"keyproto.{attr}"
        for module, attr, _, _ in tracing.TARGETS
        if module == "diqkd_lab.keyproto"
    }
    assert stages <= traced, stages - traced


def test_traced_runs_reach_every_photonics_op(clear_link_caches):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    # Cached sources and amplifier terms would let the runners skip ops.
    clear_link_caches()
    try:
        tracer.install()
        for name in ARCHITECTURES:
            architectures.run(Scenario(architecture=name, pair_prob=0.01, distance_km=5.0))
        # The runners measure by the Born rule and neither rotate nor call
        # detection_probabilities, the swap station and the amplifier detect
        # through photonics' station helpers, not through threshold_detect
        # or bell_state_measurement, and nothing in the library calls those
        # ops; these four calls reach them.
        architectures.charlie_independence_residual(
            Scenario(architecture="third_party", distance_km=5.0)
        )
        photonics.detection_probabilities(
            photonics.fock([1, 0]), (0, 1), photonics.DetectorModel()
        )
        photonics.threshold_detect(
            photonics.fock([1, 0]), (0,), photonics.DetectorModel(), (True,)
        )
        photonics.bell_state_measurement(
            photonics.tensor_modes(photonics.polarization_singlet(), photonics.polarization_singlet()),
            (2, 3),
            (4, 5),
        )
    finally:
        tracer.uninstall()
    assert tracing.leftover_wrappers() == []
    errors = [span for span in tracer.spans if "error" in span[5]]
    assert errors == []
    traced = {span[0] for span in tracer.spans}
    ops = {f"photonics.{name}" for name in tracing.PHOTONICS_OPS}
    assert ops <= traced, ops - traced
    # photonics.ModeState.count hooks the constructor of the one state type.
    assert tracer.mode_states > 0
