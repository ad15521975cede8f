import os
import sys
from pathlib import Path

from hypothesis import settings

# Allow `import oracles` from any test module.
sys.path.insert(0, str(Path(__file__).parent))

# HYPOTHESIS_PROFILE=ci prints the blob that replays a failing example.
settings.register_profile("ci", print_blob=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
