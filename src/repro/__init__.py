"""IChannels (ISCA 2021) reproduction.

A behavioural simulation of current-management mechanisms in modern Intel
client processors and the covert channels — IccThreadCovert, IccSMTcovert
and IccCoresCovert — that exploit their multi-level throttling side
effects, together with the baselines (NetSpectre, TurboCC, DFScovert,
PowerT) and the paper's mitigations.

Quickstart::

    from repro import System, cannon_lake_i3_8121u
    from repro.core import IccThreadCovert

    system = System(cannon_lake_i3_8121u())
    channel = IccThreadCovert(system)
    report = channel.transfer(b"hi")
    assert report.received == b"hi"
"""

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, table: Dict[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """A package's PEP 562 ``__getattr__`` and ``__dir__`` for re-exports.

    ``table`` maps each lazily exported name to the submodule of
    ``package`` that defines it: ``"submodule"`` when the name is the
    same there, ``"submodule.attr"`` for an alias.  The first read of a
    name imports its submodule and binds the name in the package, so
    later reads are plain attribute lookups.  ``__dir__`` lists the
    package's globals and its whole ``__all__``.

    A package ``__init__`` imports eagerly only the modules a covert
    transfer runs; everything else it exports resolves through this.
    Defined ahead of the imports below, because the subpackage
    ``__init__`` modules they run import it from a half-built ``repro``.
    """
    def __getattr__(name: str) -> object:
        try:
            target = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        submodule, _, attr = target.partition(".")
        value = getattr(importlib.import_module(f"{package}.{submodule}"),
                        attr or name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        module = sys.modules[package]
        return sorted(set(vars(module)) | set(module.__all__))

    return __getattr__, __dir__


from repro.errors import (
    CalibrationError,
    ConfigError,
    MeasurementError,
    ProtocolError,
    ReproError,
    SimulationError,
)
from repro.isa import IClass, Loop
from repro.soc import (
    ExecResult,
    System,
    cannon_lake_i3_8121u,
    coffee_lake_i7_9700k,
    haswell_i7_4770k,
    preset,
)
from repro.soc.system import SystemOptions

__version__ = "1.0.0"

__all__ = [
    "CalibrationError",
    "ConfigError",
    "MeasurementError",
    "ProtocolError",
    "ReproError",
    "SimulationError",
    "IClass",
    "Loop",
    "ExecResult",
    "System",
    "SystemOptions",
    "cannon_lake_i3_8121u",
    "coffee_lake_i7_9700k",
    "haswell_i7_4770k",
    "preset",
    "__version__",
]
