"""Put ``scripts/`` on the import path, as ``python scripts/<name>.py``
does, so the tests and the scripts they load with ``runpy.run_path``
import the corpus module ``synthetic`` that lives there."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
