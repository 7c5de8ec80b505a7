import sys
from pathlib import Path

# the benchmark's modules sit one level up and are imported by file name
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
