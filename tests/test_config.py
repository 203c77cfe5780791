import pytest

from metric_rec.config import parse_config


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_defaults_and_comments(tmp_path):
    cfg = parse_config(_write(tmp_path, """
# training run
model = mdr
split_dir = /tmp/splits   # inline comment

epochs = 10
"""))
    assert cfg.model == "mdr"
    assert cfg.split_dir == "/tmp/splits"
    assert cfg.epochs == 10
    assert cfg.learning_rate == 1e-3
    assert cfg.use_bias is True
    hyper = cfg.hyperparams()
    assert hyper.epochs == 10 and hyper.d == 16


@pytest.mark.parametrize("spelling,value", [("true", True), ("YES", True), ("1", True),
                                             ("false", False), ("no", False), ("0", False)])
def test_use_bias_spellings(tmp_path, spelling, value):
    assert parse_config(_write(tmp_path, f"use_bias = {spelling}\n")).use_bias is value


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown config key: learningrate"):
        parse_config(_write(tmp_path, "learningrate = 0.001\n"))


def test_malformed_line_names_lineno(tmp_path):
    with pytest.raises(ValueError, match="line 2"):
        parse_config(_write(tmp_path, "model = mdr\nnot a config line\n"))


def test_bad_values_rejected(tmp_path):
    with pytest.raises(ValueError, match="model"):
        parse_config(_write(tmp_path, "model = gru\n"))
    with pytest.raises(ValueError, match="learning_rate"):
        parse_config(_write(tmp_path, "learning_rate = 0.5\n"))
    with pytest.raises(ValueError, match="attention"):
        parse_config(_write(tmp_path, "model = mass\nattention = bilinear\n"))
    with pytest.raises(ValueError, match="alpha"):
        parse_config(_write(tmp_path, "model = masr\nalpha = 1.2\n"))
    with pytest.raises(ValueError, match="epochs"):
        parse_config(_write(tmp_path, "epochs = 200\n"))
    with pytest.raises(ValueError, match="use_bias"):
        parse_config(_write(tmp_path, "use_bias = maybe\n"))
    with pytest.raises(ValueError, match="mdr_variant"):
        parse_config(_write(tmp_path, "mdr_variant = uv\n"))
    with pytest.raises(ValueError, match="mass_variant"):
        parse_config(_write(tmp_path, "mass_variant = x\n"))


def test_repeated_key_rejected_naming_both_lines(tmp_path):
    path = _write(tmp_path, "model = mdr\nd = 16\n# wider\nd = 64\n")
    with pytest.raises(ValueError) as exc:
        parse_config(path)
    assert str(exc.value) == f"{path}: config key d repeated on lines 2 and 4"
