"""The README runs as written: the quick start's one-block pricing API, and
the config format's example table."""

import re
from pathlib import Path

from stretchgrid.bench import parse_config_text, parse_table_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prices_the_barrier_call():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    assert "TrBdf2Stepper(" in block and ".run(" in block
    scope: dict = {}
    exec(compile(block, str(README), "exec"), scope)
    # quadrature value of this discretely monitored up-and-out call
    assert abs(scope["price"] - 2.3174429691) < 1e-4


def test_config_format_block_parses_into_its_columns():
    block = re.search(r"### Config format\n.*?```\n(.*?)```", README.read_text(), re.S).group(1)
    table = parse_table_config(parse_config_text(block))
    assert [name for name, _ in table.columns] == ["deform", "insert"]
