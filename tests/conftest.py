from pathlib import Path

import pytest

from regionminer.eventlog import parse_trace_log
from regionminer.petri import PetriNet, WorkflowNet

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def l1_text() -> str:
    return (DATA / "l1.log").read_text()


@pytest.fixture(scope="session")
def l1_prime_text() -> str:
    return (DATA / "l1_prime.log").read_text()


@pytest.fixture(scope="session")
def l1(l1_text):
    return parse_trace_log(l1_text)


@pytest.fixture(scope="session")
def l1_prime(l1_prime_text):
    return parse_trace_log(l1_prime_text)


@pytest.fixture()
def silent_cycle():
    """A silent self-loop on p that the silent walk keeps firing: the hop
    bound is what ends it."""
    net = PetriNet(
        ["pi", "p", "q", "po"],
        ["ts", "tl", "tf", "ta"],
        [
            ("pi", "ts"),
            ("ts", "p"),
            ("p", "tl"),
            ("tl", "p"),
            ("p", "tf"),
            ("tf", "q"),
            ("q", "ta"),
            ("ta", "po"),
        ],
        {"ts": None, "tl": None, "tf": "f", "ta": "a"},
    )
    return WorkflowNet(net=net, source="pi", sink="po")
