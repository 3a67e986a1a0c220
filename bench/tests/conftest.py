import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]

# The benchmark's modules import each other as top-level modules (as
# ``python3 bench/run.py`` sees them) and the simulator from src/.
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
