"""Online bin covering with oracle advice, in exact rational arithmetic.

The package bundles three online strategies (Dual Next Fit, Dual Harmonic,
and an advice-driven Dual Harmonic with critical bins), the advice oracle,
a bit-exact self-delimiting advice tape codec, an exact optimal-covering
solver with certificates, instance generators, and a CLI harness that
checks competitive bounds as hard inequalities.  The package root exports
only ``__version__``; import from the submodules (``bincover.model``,
``bincover.strategies``, ``bincover.oracle``, ``bincover.codec``,
``bincover.optimal``, ``bincover.generators``, ``bincover.cli``).
"""

__version__ = "0.1.0"
