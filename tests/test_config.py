import dataclasses
import re
from pathlib import Path

import fastslow
from fastslow.config import Tolerances

SRC = Path(fastslow.__file__).parent


def test_every_tolerance_is_read():
    # A field counts as read where some module accesses it as an attribute;
    # its declaration in config.py does not count.
    text = "\n".join(p.read_text() for p in sorted(SRC.glob("*.py")))
    unread = [f.name for f in dataclasses.fields(Tolerances)
              if not re.search(rf"\.{f.name}\b", text)]
    assert unread == []

