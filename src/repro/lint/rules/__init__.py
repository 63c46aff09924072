"""Built-in rules; importing this package registers them."""

from repro.lint.rules import attribution         # noqa: F401
from repro.lint.rules import determinism         # noqa: F401
from repro.lint.rules import fp32order           # noqa: F401
from repro.lint.rules import hotpath             # noqa: F401
from repro.lint.rules import layering            # noqa: F401
from repro.lint.rules import seedflow            # noqa: F401
from repro.lint.rules import seqlock             # noqa: F401
