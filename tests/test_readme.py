"""README's examples are public surface: its library example runs and its
config block parses."""

import os
import re
import subprocess
import sys
from pathlib import Path

from coreflow import config
from coreflow.config import parse_config_text

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def block(lang, starts):
    (text,) = [body for tag, body in BLOCKS if tag == lang and body.startswith(starts)]
    return text


def test_library_example_runs():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", block("python", "import")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"final Q: \S+\n", done.stdout)


def test_config_block_parses():
    cfg = parse_config_text(block("", "experiment"))
    assert (cfg.kind, cfg.seed, cfg.out) == ("completion", 42, "results")
    assert (cfg.model.family, cfg.model.modes, cfg.optimizer.iters) == ("tucker", (20, 20, 20), 20000)


def test_config_block_names_every_key():
    """Each key the parser knows is the first word of a line of the block,
    under its block; a commented line counts."""
    documented, prefix = set(), ""
    for line in block("", "experiment").splitlines():
        words = line.lstrip("# ").split()
        if words[-1:] == ["{"]:
            prefix = words[0] + "."
        elif words == ["}"]:
            prefix = ""
        elif words:
            documented.add(prefix + words[0])
    assert set(config._KEYS) - documented == set()
