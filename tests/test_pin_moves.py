"""pin_moves.py: each pin's worst move between two pin containers."""

from fbm import autodiff as ad

import pin_moves
from make_pins import FIXTURE, LR, PINS

HEADER, RECORDS = ad.load_tensors(FIXTURE)


def _run(capsys, new):
    rc = pin_moves.main([str(FIXTURE), str(new)])
    out, err = capsys.readouterr()
    return rc, out.splitlines(), err


def test_the_fixture_against_itself_moves_nothing(capsys):
    rc, out, _ = _run(capsys, FIXTURE)
    assert rc == 0
    assert [line.split() for line in out] == [[pin, "pred", "0", "grad", "0", "adam2", "0"] for pin in PINS]


def test_a_moved_record_is_named_with_its_move(tmp_path, capsys):
    values = dict(RECORDS)
    key_bias = next(name for name in values if name.endswith(".k.b") and ":adam2/" in name)
    pin = key_bias.partition(":")[0]
    init = values[key_bias.replace(":adam2/", ":init/")]
    moved = {"fbm-l:adam2/linear.w": values["fbm-l:adam2/linear.w"] * (1.0 + 3e-9),
             key_bias: init + LR}  # a real step, where the exact fact is none
    ad.save_tensors(tmp_path / "new.fbm", [(n, moved.get(n, a)) for n, a in RECORDS], header=HEADER)
    rc, out, _ = _run(capsys, tmp_path / "new.fbm")
    assert rc == 0
    rows = {line.split()[0]: line for line in out}
    assert rows["fbm-l"].split() == ["fbm-l", "pred", "0", "grad", "0", "adam2", "3e-09", "(adam2/linear.w)"]
    assert rows[pin].split()[1:] == ["pred", "0", "grad", "0", "adam2", "0"]  # the rule, not a move
    assert rows[f"{key_bias}:"] == f"{key_bias}: breaks its exact-fact rule"
    assert sum(line.split()[1:] != ["pred", "0", "grad", "0", "adam2", "0"] for line in out) == 2


def test_containers_with_other_record_names_exit_1(tmp_path, capsys):
    ad.save_tensors(tmp_path / "new.fbm", RECORDS[1:], header=HEADER)
    rc, out, err = _run(capsys, tmp_path / "new.fbm")
    assert rc == 1 and out == []
    assert f"only in old ['{RECORDS[0][0]}']" in err
