"""Toolkit for entanglement relative to distinguished observable sets.

Core surfaces: dense operator/state algebra (:mod:`getk.operators`), the
catalog of distinguished observable spaces (:mod:`getk.catalog`),
observable-relative purity and unentanglement tests (:mod:`getk.purity`),
coherent states and the purity maximizer (:mod:`getk.coherent`), fermionic
modes (:mod:`getk.fermion`), and exact no-signalling box polytopes
(:mod:`getk.boxes`).  The package exports nothing itself: import the
submodule you need.  :mod:`getk.boxes` is pure ``Fraction`` code and does
not import numpy.
"""

__version__ = "0.1.0"
