"""Each demo script runs clean from an empty working directory."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import checkout_env

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"

MARKERS = {
    "golden_walkthrough.py": "every controller agreed",
    "baseline_contrast.py": "worst averaged-estimate deviation",
    "topology_tour.py": "extension scheme",
    "campaign.py": "distinct topologies",
}

# Files each demo's docstring says it writes, relative to the working directory.
ARTIFACTS = {
    "golden_walkthrough.py": [],
    "baseline_contrast.py": ["out/baseline_contrast/comparison.csv"],
    "topology_tour.py": ["out/topology_tour/grown.dot"],
    "campaign.py": [f"out/campaign/period_{i:03d}/decision_record.json" for i in range(6)],
}


@pytest.mark.parametrize("script", sorted(MARKERS))
def test_demo_runs_clean(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(DEMO_DIR / script)],
        cwd=tmp_path, env=checkout_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert MARKERS[script] in proc.stdout
    for rel in ARTIFACTS[script]:
        assert (tmp_path / rel).is_file(), f"{script} did not write {rel} under its cwd"


def test_readme_library_example_runs(tmp_path):
    # README's one Python block, run as written, exposes the attacker
    readme = (ROOT / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    source = blocks[0].split("```", 1)[0]
    proc = subprocess.run(
        [sys.executable, "-c", source],
        cwd=tmp_path, env=checkout_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "((5,),)\n"
