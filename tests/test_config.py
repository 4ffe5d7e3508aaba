"""README's "Configuration" section against config's field table."""
import json
import re
from pathlib import Path

from opticomp import config

README = Path(__file__).resolve().parents[1] / "README.md"


def configuration_section() -> str:
    return README.read_text().split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]


def flatten(obj: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in obj.items():
        if isinstance(value, dict):
            out |= flatten(value, f"{prefix}{key}.")
        else:
            out[f"{prefix}{key}"] = value
    return out


def test_the_readme_config_example_names_every_field_at_its_default(tmp_path):
    example = re.search(r"```json\n(.*?)```", configuration_section(), re.S).group(1)
    assert flatten(json.loads(example)) == {name: default for name, (_, default) in config._FIELDS.items()}
    path = tmp_path / "config.json"
    path.write_text(example)
    assert config.load_config(str(path)) == config.load_config(None)


def test_the_readme_field_table_lists_each_numeric_field_with_its_default():
    rows = re.findall(r"^\| `([\w.]+)` \| [^|]+ \| ([^|]+) \|", configuration_section(), re.M)
    table = {name: json.loads(default) for name, default in rows}
    numeric = {name: default for name, (_, default) in config._FIELDS.items() if type(default) in (int, float)}
    assert len(rows) == len(table)
    assert {name: (type(v), v) for name, v in table.items()} == {name: (type(v), v) for name, v in numeric.items()}
