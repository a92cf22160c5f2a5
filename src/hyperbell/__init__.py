"""Two-photon polarization-path all-versus-nothing Bell test, simulated exactly.

The package builds the doubly entangled state, machine-checks its nine
perfect-correlation relations, proves by exhaustive enumeration that no
local-realistic assignment reproduces them (Bell-Mermin value at most 7
against the quantum 9), and simulates the six linear-optics apparatuses that
measure every quantity in the argument, with a white-noise visibility model
reproducing the 7/9 violation threshold.  Import from the modules:
``hyperbell.hilbert``, ``observables``, ``lhv``, ``inputs``, ``optics``,
``experiment`` and ``cli``; importing the package itself loads none of them.
"""

__version__ = "0.1.0"
