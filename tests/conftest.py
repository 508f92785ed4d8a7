"""Load every ``nemsqnd`` module before any test is collected.

Hypothesis mixes float literals from the local modules in ``sys.modules``
into the examples it draws, and the package loads its submodules lazily.
Without this, a test drew other examples alone or in its file than in the
whole suite.  A test checks that ``MODULES`` names every module of the
package.
"""

import importlib

MODULES = ("circuit", "cli", "config", "entanglement", "errors", "fock", "ode",
           "readout", "verify")

for _name in MODULES:
    importlib.import_module(f"nemsqnd.{_name}")
