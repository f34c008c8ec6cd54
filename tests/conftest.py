import os
import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# HYPOTHESIS_PROFILE=ci runs every property test on a fixed sequence of
# examples and prints the reproduction blob of any failure, so a
# counterexample found on CI can be replayed locally.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
