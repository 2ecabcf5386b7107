"""Device-independent QKD simulation lab.

Subpackages by layer:

* :mod:`diqkd_lab.qstate` — density operators, POVMs, Born rule.
* :mod:`diqkd_lab.bellcert` — Bell functionals, local bounds, detection
  loopholes, critical efficiencies.
* :mod:`diqkd_lab.photonics` — Fock-space optics: sources, beamsplitters,
  loss, threshold detectors, Bell-state measurement, qubit amplifier.
* :mod:`diqkd_lab.architectures` — end-to-end link architectures and their
  heralded entanglement quality.
* :mod:`diqkd_lab.keyproto` — round-by-round key protocol: sifting,
  estimation, reconciliation, privacy amplification.
* :mod:`diqkd_lab.cli` — command-line front end.
"""

from diqkd_lab.architectures import (
    RunResult,
    Scenario,
    devetak_winter_rate,
    key_rate,
    matter_node_scenario,
    run,
    secret_bits_per_second,
)
from diqkd_lab.bellcert import (
    bell_value,
    bin_no_click,
    chsh_functional,
    critical_efficiency,
    local_bound,
    loophole_attack,
    loophole_attack_curve,
    partially_entangled_state,
)
from diqkd_lab.keyproto import (
    SessionOutcome,
    run_session,
    serialize_transcript,
    simulate_rounds,
)
from diqkd_lab.photonics import (
    DetectorModel,
    ModeMixture,
    ModeState,
    amplifier_success_probability,
    beamsplitter,
    bell_state_measurement,
    distance_to_transmission,
    loss_channel,
    polarization_singlet,
    qubit_amplifier,
    spdc_source,
)
from diqkd_lab.qstate import (
    CorrelationTable,
    DensityOperator,
    Povm,
    bell_state,
    born_table,
    singlet,
)

__version__ = "0.1.0"

__all__ = [
    "CorrelationTable",
    "DensityOperator",
    "DetectorModel",
    "ModeMixture",
    "ModeState",
    "Povm",
    "RunResult",
    "Scenario",
    "SessionOutcome",
    "amplifier_success_probability",
    "beamsplitter",
    "bell_state",
    "bell_state_measurement",
    "bell_value",
    "bin_no_click",
    "born_table",
    "chsh_functional",
    "critical_efficiency",
    "devetak_winter_rate",
    "distance_to_transmission",
    "key_rate",
    "local_bound",
    "loophole_attack",
    "loophole_attack_curve",
    "loss_channel",
    "matter_node_scenario",
    "partially_entangled_state",
    "polarization_singlet",
    "qubit_amplifier",
    "run",
    "run_session",
    "secret_bits_per_second",
    "serialize_transcript",
    "simulate_rounds",
    "singlet",
    "spdc_source",
    "__version__",
]
