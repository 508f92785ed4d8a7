"""Load every ``nemsqnd`` module before any test is collected, and print a
replayable blob with every Hypothesis failure.

Hypothesis mixes float literals from the local modules in ``sys.modules``
into the examples it draws, and the package loads its submodules lazily.
Loading them all first keeps that pool of constants the same whatever
tests run; a test checks that ``MODULES`` names every module of the
package.  Each Hypothesis test then draws the same examples run by node
id as in the whole suite (compare whole examples under ``-v -s
--hypothesis-verbosity=verbose``: a grep of the ``Trying example`` lines
also catches pytest's progress dots, which share a line with the first
one).  The ``replayable`` profile, which the suite runs under, prints a
``@reproduce_failure`` decorator with any failure as well; pasted onto
the test, it replays the failing example in any order on the same
Hypothesis version.
"""

import importlib

from hypothesis import settings

MODULES = ("circuit", "cli", "config", "entanglement", "errors", "fock", "ode",
           "readout", "verify")

for _name in MODULES:
    importlib.import_module(f"nemsqnd.{_name}")

settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")
