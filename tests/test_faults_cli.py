"""Unit tests: the explorer CLI turns out-of-range arguments into usage
errors (exit status 2, a message naming the flag) instead of a
traceback from deep inside a run."""

import pytest

from repro.faults.__main__ import main

pytestmark = pytest.mark.faults


@pytest.mark.parametrize(
    "args",
    [
        "--f 0",
        "--n 1",
        "--n 5",
        "--max-events 0",
        "--envelopes 0",
        "--heal-at 2.0",
        "--heal-at 2.4",  # a fault may start at the window's end
        "--profile smartBFT",
    ],
)
def test_bad_arguments_are_usage_errors(args, capsys):
    flag = args.split()[0]
    with pytest.raises(SystemExit) as exit_info:
        main(args.split() + ["--seeds", "1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert f"error: {flag}" in err or f"error: argument {flag}" in err
