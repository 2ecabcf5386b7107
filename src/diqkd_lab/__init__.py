"""Device-independent QKD simulation lab.

Modules by layer.  The package root re-exports nothing: import each name
from the module that defines it (for example ``from
diqkd_lab.architectures import Scenario, run``).  Importing a layer loads
only the layers under it: ``qstate`` loads no other layer, ``bellcert``
and ``photonics`` load ``qstate``, ``architectures`` loads those three,
``keyproto`` loads ``architectures`` and what it loads, and ``cli`` loads
them all.

* :mod:`diqkd_lab.qstate` — density operators, POVMs, Born rule.
* :mod:`diqkd_lab.bellcert` — CHSH, its local bound, detection
  loopholes, critical efficiencies.
* :mod:`diqkd_lab.photonics` — Fock-space optics: sources, beamsplitters,
  loss, threshold detectors, Bell-state measurement, qubit amplifier.
* :mod:`diqkd_lab.architectures` — end-to-end link architectures and their
  heralded entanglement quality.
* :mod:`diqkd_lab.keyproto` — round-by-round key protocol: sifting,
  estimation, reconciliation, privacy amplification.
* :mod:`diqkd_lab.cli` — command-line front end.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
