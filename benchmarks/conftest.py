import sys
from pathlib import Path

# The benchmark imports seqfix from the checkout's src/, as run.py does.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
