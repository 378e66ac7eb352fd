"""tools/artifact_digest.py: the byte-identity check between two checkouts."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

from mgnet.cli import main

from conftest import checkout_env, ref_csv_text

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digest.py"
LINE = re.compile(r"^(?:[0-9a-f]{64}|exit=\d+)  \S+$")


def digest(*args, cwd):
    proc = subprocess.run([sys.executable, str(TOOL), *args], cwd=cwd, env=checkout_env(),
                          capture_output=True, text=True, timeout=300)
    return proc


def test_golden_set_hashes_what_the_cli_writes(tmp_path):
    proc = digest("golden", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(LINE.match(line) for line in lines), lines
    # 3 modes x (one period + four periods) x 4 artifacts, plus an exit line per run
    assert len(lines) == 3 * 5 * 4 + 6
    assert sum(line.startswith("exit=0  ") for line in lines) == 6
    assert list(tmp_path.iterdir()) == []

    out = tmp_path / "o"
    assert main(["run", "--scenario", "golden", "--mode", "resilient-unknown",
                 "--out", str(out)]) == 0
    for name in ("decision_record.json", "trajectory.csv", "graph.edges", "graph.dot"):
        sha = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert f"{sha}  golden/resilient-unknown/p1/{name}" in lines
    assert digest("golden", cwd=tmp_path).stdout == proc.stdout


def test_verify_set_hashes_what_the_cli_prints(tmp_path, capsys):
    proc = digest("verify", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(LINE.match(line) for line in lines), lines
    # f in (0, 1) x four bounds, an exit line and a stdout digest each
    assert len(lines) == 2 * 4 * 2
    assert list(tmp_path.iterdir()) == []

    weights = tmp_path / "w.csv"
    weights.write_text(ref_csv_text())
    for f, bound, code in ((0, None, 0), (1, None, 2), (1, 3, 2)):
        capsys.readouterr()
        extra = [] if bound is None else ["--k-max", str(bound)]
        assert main(["verify", "--weights", str(weights), "--f", str(f), *extra]) == code
        name = f"verify/f{f}/" + ("cap" if bound is None else f"k{bound}")
        sha = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert f"exit={code}  {name}" in lines
        assert f"{sha}  {name}/stdout" in lines


def test_unknown_set_is_refused(tmp_path):
    proc = digest("golden", "nonsense", cwd=tmp_path)
    assert proc.returncode == 2
    assert "nonsense" in proc.stderr and proc.stdout == ""


def test_overflow_set_digests_the_error_records(tmp_path):
    proc = digest("overflow", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(LINE.match(line) for line in lines), lines
    # every period of every mode fails: an exit line and two error records per mode
    assert [line for line in lines if line.startswith("exit=")] == [
        f"exit=2  overflow/{mode}" for mode in ("resilient-known", "resilient-unknown", "baseline")]
    assert len(lines) == 3 * 3
    assert list(tmp_path.iterdir()) == []
