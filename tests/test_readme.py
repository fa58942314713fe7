"""The README quick start runs as written: the one-block pricing API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prices_the_barrier_call():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    assert "TrBdf2Stepper(" in block and ".run(" in block
    scope: dict = {}
    exec(compile(block, str(README), "exec"), scope)
    # quadrature value of this discretely monitored up-and-out call
    assert abs(scope["price"] - 2.3174429691) < 1e-4
