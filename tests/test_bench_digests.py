import pytest

from .bench_digests import DIGESTS, SEEDS, digest_lines


@pytest.mark.parametrize("seed", SEEDS)
def test_every_bench_input_keeps_its_outputs(seed):
    # every benchmark input at a pinned seed: its PNML, constraint system,
    # pair solutions and quality report hash as committed
    expected = [
        line for line in DIGESTS.read_text(encoding="utf-8").splitlines()
        if line.split(" ", 1)[0] == str(seed)
    ]
    actual = digest_lines(seed)
    assert len(actual) == len(expected) == 215
    changed = [
        f"{want}\n  now {got}" for want, got in zip(expected, actual) if want != got
    ]
    assert not changed, f"{len(changed)} input(s) changed:\n" + "\n".join(changed[:10])
