import pytest

from coreflow.config import (
    build_model_spec,
    build_optimizer,
    parse_config,
    parse_config_text,
)
from coreflow.errors import ParseError, ValidationError
from coreflow.optim import AdamConfig, DasConfig, SamConfig, SgdConfig

MINIMAL_NOISE = """
experiment tucker2-noise
model {
}
"""

FULL = """
# completion run
experiment completion
seed 42
out results

model {
  family tucker
  modes 20,20,20
  ranks 4,4,4
}

objective {
  source synthetic
  mask_density 0.3
  noise_alpha 0.0
  resample false
}

optimizer {
  kind das
  base adam
  eta 0.002
  alpha 0.005
  beta1 0.85
  beta2 0.99
  iters 500
  schedule cosine
}
"""


class TestParsing:
    def test_minimal_noise_config_gets_documented_defaults(self):
        cfg = parse_config_text(MINIMAL_NOISE)
        assert cfg.kind == "tucker2-noise"
        assert cfg.optimizer.eta == 0.001
        assert (cfg.optimizer.beta1, cfg.optimizer.beta2) == (0.9, 0.999)
        assert cfg.model.family == "tucker2"
        assert cfg.objective.noise_alphas == (0.0, 0.1, 0.3)

    def test_full_config_round_trip(self):
        cfg = parse_config_text(FULL)
        assert cfg.seed == 42
        assert cfg.out == "results"
        assert cfg.model.modes == (20, 20, 20)
        assert cfg.objective.mask_density == 0.3
        assert cfg.objective.resample is False
        assert cfg.optimizer.kind == "das"
        assert cfg.optimizer.iters == 500
        assert cfg.optimizer.schedule == "cosine"

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text(
            "# heading\nexperiment tucker2-noise  # trailing\n\nmodel {\n}\n"
        )
        assert cfg.kind == "tucker2-noise"

    def test_missing_model_block(self):
        with pytest.raises(ValidationError, match="model"):
            parse_config_text("experiment completion\n")

    def test_zero_mask_density(self):
        text = FULL.replace("mask_density 0.3", "mask_density 0")
        with pytest.raises(ValidationError, match="mask_density"):
            parse_config_text(text)

    def test_unknown_experiment_kind(self):
        with pytest.raises(ValidationError, match="experiment"):
            parse_config_text("experiment frobnicate\nmodel {\n}\n")

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config_text("experiment completion\nbogus 1\nmodel {\n}\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(ParseError, match="seed"):
            parse_config_text("experiment completion\nseed abc\nmodel {\n}\n")

    def test_unclosed_block(self):
        with pytest.raises(ParseError, match="unclosed"):
            parse_config_text("experiment completion\nmodel {\nfamily cp\n")

    def test_stray_close(self):
        with pytest.raises(ParseError, match="stray"):
            parse_config_text("}\n")

    def test_nested_block_rejected(self):
        with pytest.raises(ParseError, match="nested"):
            parse_config_text("model {\ninner {\n}\n}\n")

    def test_missing_source_file(self):
        text = FULL.replace("source synthetic", "source /nonexistent/file.dtf1")
        with pytest.raises(ValidationError, match="not found"):
            parse_config_text(text)

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ValidationError, match="seed"):
            parse_config_text(FULL.replace("seed 42", "seed -1"))

    def test_iters_must_be_positive(self):
        text = FULL.replace("iters 500", "iters 0")
        with pytest.raises(ValidationError, match="iters"):
            parse_config_text(text)

    def test_parse_config_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(FULL)
        cfg = parse_config(path)
        assert cfg.kind == "completion"

    def test_theorem_suite_needs_no_model(self):
        cfg = parse_config_text("experiment theorem-suite\nseeds 3\n")
        assert cfg.suite_seeds == 3


class TestModelBuilding:
    def test_all_families_build(self):
        cases = [
            ("cp", (4, 3, 2), (3,)),
            ("tucker", (4, 3, 2), (2, 2, 2)),
            ("tucker2", (5, 4), (2, 3)),
            ("tt", (3, 3, 2), (2, 2)),
            ("tr", (3, 2, 3), (2, 2, 2)),
        ]
        for family, modes, ranks in cases:
            cfg = parse_config_text(
                "experiment completion\nmodel {\n"
                f"family {family}\nmodes {','.join(map(str, modes))}\n"
                f"ranks {','.join(map(str, ranks))}\n}}\n"
            )
            spec = build_model_spec(cfg.model)
            assert spec.family == family
            assert spec.output_shape == modes

    def test_custom_model_from_plan_and_shapes(self):
        cfg = parse_config_text(
            "experiment custom\nmodel {\nfamily custom\n"
            "plan oa,ab,ib->oi\nshapes 6x3,3x3,5x3\n}\n"
        )
        spec = build_model_spec(cfg.model)
        assert spec.output_shape == (6, 5)
        assert spec.num_cores == 3

    def test_rank_count_mismatch(self):
        with pytest.raises(ValidationError):
            parse_config_text(
                "experiment completion\nmodel {\nfamily tucker\n"
                "modes 3,3,3\nranks 2,2\n}\n"
            )


class TestOptimizerBuilding:
    def base_block(self, **overrides):
        cfg = parse_config_text(MINIMAL_NOISE)
        for key, value in overrides.items():
            setattr(cfg.optimizer, key, value)
        return cfg.optimizer

    def test_kinds(self):
        assert isinstance(build_optimizer(self.base_block(kind="sgd")), SgdConfig)
        assert isinstance(build_optimizer(self.base_block(kind="adam")), AdamConfig)
        sam = build_optimizer(self.base_block(kind="sam", base="sgd"))
        assert isinstance(sam, SamConfig) and isinstance(sam.base, SgdConfig)
        das = build_optimizer(self.base_block(kind="das", base="adam"))
        assert isinstance(das, DasConfig) and isinstance(das.base, AdamConfig)

    def test_bad_base(self):
        with pytest.raises(ValidationError, match="base"):
            build_optimizer(self.base_block(kind="sam", base="rmsprop"))

    def test_bad_hyperparameters_surface_as_validation_errors(self):
        with pytest.raises(ValidationError):
            build_optimizer(self.base_block(eta=-1.0))
        with pytest.raises(ValidationError):
            build_optimizer(self.base_block(kind="sam", rho=0.0))
