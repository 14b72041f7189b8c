import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavityspdc
from cavityspdc import BiphotonParams, default_config


@pytest.fixture(scope="session")
def cfg():
    return default_config()


@pytest.fixture(scope="session")
def ppktp0(cfg):
    return cfg.ppktp0


@pytest.fixture(scope="session")
def ppktp1(cfg):
    return cfg.ppktp1


@pytest.fixture(scope="session")
def chain(cfg):
    return cfg.chain


@pytest.fixture(scope="session")
def source_150mw(cfg):
    return cfg.source


@pytest.fixture(scope="session")
def bp0(ppktp0):
    return BiphotonParams.from_cavity(ppktp0)


@pytest.fixture(scope="session")
def bp1(ppktp1):
    return BiphotonParams.from_cavity(ppktp1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def fresh_python():
    """run(code, *args): the stripped standard output of code run by a new
    interpreter that imports this checkout's cavityspdc."""
    src = str(Path(cavityspdc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))

    def run(code, *args):
        return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                              capture_output=True, text=True, env=env, check=True).stdout.strip()

    return run
