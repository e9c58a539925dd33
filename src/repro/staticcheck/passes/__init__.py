"""Built-in analysis passes.

Importing this package registers every first-class pass with the
framework registry.  Adding a pass is: write the module, import it
here — nothing else to wire up.
"""

from repro.staticcheck.passes import determinism  # noqa: F401
from repro.staticcheck.passes import dimensional  # noqa: F401
from repro.staticcheck.passes import hygiene  # noqa: F401
from repro.staticcheck.passes import poolsafety  # noqa: F401

__all__ = ["determinism", "dimensional", "hygiene", "poolsafety"]
