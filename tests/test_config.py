import dataclasses
import re
from pathlib import Path

import fastslow
from fastslow.config import ExperimentConfig, config_from_dict

SRC = Path(fastslow.__file__).parent


def test_every_config_field_is_read():
    # A field counts as read where some module accesses it as an attribute;
    # its declaration in config.py does not count.
    text = "\n".join(p.read_text() for p in sorted(SRC.glob("*.py")))
    unread = [f.name for f in dataclasses.fields(ExperimentConfig)
              if not re.search(rf"\.{f.name}\b", text)]
    assert unread == []


def test_config_hash_has_one_value_per_fixture_whatever_its_spelling():
    # configured_system reads the name upper-cased, so the hash does too; an
    # upper-case name keeps the hash that earlier versions recorded
    lin = [config_from_dict({"fixture": name}).sha256() for name in ("LIN", "lin", "Lin")]
    assert lin == [lin[0]] * 3
    assert lin[0].startswith("d998b80c")
    assert config_from_dict({"fixture": "cbd"}).sha256() != lin[0]
