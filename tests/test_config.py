import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coreflow.config import (
    build_model_spec,
    build_optimizer,
    parse_config,
    parse_config_text,
)
from coreflow.errors import FormatError, ParseError, ValidationError
from coreflow.experiments import run_experiment
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

    def test_explicit_zero_noise_alpha_is_kept(self, tmp_path):
        text = MINIMAL_NOISE + "objective {\n  noise_alpha 0.0\n}\noptimizer {\n  iters 3\n}\n"
        cfg = parse_config_text(text)
        assert cfg.objective.noise_alphas == (0.0,)
        run_experiment(cfg, str(tmp_path))
        assert [p.name for p in tmp_path.glob("*.csv")] == ["trajectory_alpha_0p0.csv"]

    @pytest.mark.parametrize("alphas", ["0.1,0.1", "0.3,0.1", "-0.0,0.0", "-0.1,0.2", "-0.1"])
    def test_noise_sweep_strengths_must_ascend_from_zero(self, alphas):
        # a repeated strength would overwrite its trajectory file; an unordered
        # list would fail the orderings the sweep reports
        text = MINIMAL_NOISE + f"objective {{\n  noise_alpha {alphas}\n}}\n"
        got = ",".join(repr(float(a)) for a in alphas.split(","))
        want = f"^noise_alpha must be >= 0 and strictly ascending in tucker2-noise, got {got}$"
        with pytest.raises(ValidationError, match=want):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "model,cores",
        [
            ("family tucker\n  modes 4,4,4\n  ranks 2,2,2", 4),
            ("family tt\n  modes 3,3,3,3\n  ranks 2,2,2", 4),
            ("family tr\n  modes 3,3,3,3\n  ranks 2,2,2,2", 4),
            ("family custom\n  plan ij,jk->ik\n  shapes 3x2,2x3", 2),
        ],
        ids=["tucker", "tt-order-4", "tr-order-4", "custom-2"],
    )
    def test_noise_sweep_needs_three_cores(self, model, cores):
        text = f"experiment tucker2-noise\nmodel {{\n  {model}\n}}\n"
        with pytest.raises(ValidationError, match=f"^tucker2-noise needs a model of 3 cores, got {cores}$"):
            parse_config_text(text)

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

    @pytest.mark.parametrize(
        "key,old,new",
        [
            ("eta", "eta 0.002", "eta inf"),
            ("rho", "alpha 0.005", "rho nan"),
            ("noise_alpha", "noise_alpha 0.0", "noise_alpha 0.0,nan"),
        ],
    )
    def test_non_finite_number_reports_line_and_key(self, key, old, new):
        line = FULL.splitlines().index(f"  {old}") + 1
        with pytest.raises(ParseError, match=f"^line {line}: {key} needs a finite number"):
            parse_config_text(FULL.replace(old, new))

    @pytest.mark.parametrize(
        "text",
        [
            FULL.replace("noise_alpha 0.0", "noise_alpha ,"),
            MINIMAL_NOISE + "objective {\n  noise_alpha ,\n}\n",
        ],
        ids=["completion", "tucker2-noise"],
    )
    def test_empty_noise_alpha_list_reports_line_and_key(self, text):
        line = text.splitlines().index("  noise_alpha ,") + 1
        with pytest.raises(ParseError, match=f"^line {line}: noise_alpha needs at least one"):
            parse_config_text(text)

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

    @pytest.mark.parametrize("count", ["0", "-1", str(2**63), "100000000000000000000"])
    def test_theorem_suite_seed_count_out_of_range(self, count):
        with pytest.raises(ValidationError, match=f"^seeds must be .*, got {count}$"):
            parse_config_text(f"experiment theorem-suite\nseeds {count}\n")


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

    @pytest.mark.parametrize(
        "block",
        [
            "family tucker\nmodes 0,20,20\nranks 4,4,4",
            "family tucker\nmodes 20,20,20\nranks -1,4,4",
            "family custom\nplan ij->ij\nshapes 0x3",
        ],
        ids=["modes-0", "ranks-negative", "shapes-0x3"],
    )
    def test_extent_below_one_rejected(self, block):
        with pytest.raises(ValidationError, match="extents must be >= 1"):
            parse_config_text(f"experiment completion\nmodel {{\n{block}\n}}\n")

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


WORDS = st.sampled_from((
    "completion", "theorem-suite", "tucker", "tt", "adam", "das", "cosine", "synthetic", "x",
))
INTS = st.sampled_from(("0", "-1", "1", "2", "3", "99999999999999999999"))
INT_LISTS = st.sampled_from(
    ("2,3", "3,2,3", "2,2,2,2", "3", "0,2", "-1,2", "3,,2", "99999999999999999999,2,2")
)
SHAPES = st.sampled_from(("2x3,3x2", "3x2,2x4", "3x3", "2", "2x0", "3x-1"))
FLOATS = st.sampled_from(("0", "-1", "0.5", "1e-3", "2", "1", "0.999", "1e-300"))
BOOLS = st.sampled_from(("true", "no", "1"))
AWKWARD = st.sampled_from(("nan", "1e999", "-inf", "2x0", "a,b->ab", ",", "{", "}", "{}", "x", "2.5"))
CONFIG_BLOCKS = {
    "": {"seed": INTS, "out": WORDS, "seeds": INTS},
    "model": {
        "family": st.sampled_from(("cp", "tucker", "tucker2", "tt", "tr", "custom", "x")),
        "modes": INT_LISTS,
        "ranks": INT_LISTS,
        "plan": st.sampled_from(("ab,bc->ac", "a,b->ab", "ii->i", "ab,bc", "ab->ba")),
        "shapes": SHAPES,
    },
    "objective": {
        "source": st.sampled_from(("synthetic", "absent.dtf1")),
        "mask_density": FLOATS,
        "noise_alpha": INT_LISTS,
        "resample": BOOLS,
    },
    "optimizer": {
        "kind": st.sampled_from(("sgd", "adam", "sam", "das", "x")),
        "base": st.sampled_from(("sgd", "adam", "x")),
        "eta": FLOATS, "rho": FLOATS, "alpha": FLOATS, "momentum": FLOATS, "beta1": FLOATS,
        "beta2": FLOATS, "epsilon": FLOATS, "weight_decay": FLOATS, "iters": INTS,
        "schedule": st.sampled_from(("constant", "cosine", "x")),
    },
}
ANY_KEY = sorted({key for block in CONFIG_BLOCKS.values() for key in block} | {"experiment"})


def config_lines(values):
    """Up to five 'key value' lines over the keys of ``values``, each with a value of its kind."""
    line = st.sampled_from(sorted(values)).flatmap(lambda key: values[key].map(f"{key} {{}}".format))
    return st.lists(line, max_size=5)


STRAY_LINES = st.one_of(
    st.sampled_from(["{", "}", "x {", "model {", "seed", "", "# note"]),
    st.builds("{} {}".format, st.sampled_from(ANY_KEY), AWKWARD),
)


@st.composite
def config_soup(draw):
    """Config text from the grammar's keys and awkward values: each block with
    keys of its own and values of their kind, then up to three stray lines (a
    brace, or any key with an awkward value)."""
    kind = draw(st.sampled_from(("completion", "tucker2-noise", "theorem-suite", "custom", "x")))
    lines = [f"experiment {kind}", *draw(config_lines(CONFIG_BLOCKS[""]))]
    for block, values in list(CONFIG_BLOCKS.items())[1:]:
        if draw(st.booleans()):
            first = [f"family {draw(values['family'])}"] if block == "model" else []
            lines += [f"{block} {{", *first, *draw(config_lines(values)), "}"]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(STRAY_LINES))
    return "\n".join(lines)


class TestConfigFuzz:
    """Whatever the text, parsing a config and building its model and
    optimizer succeed or raise ParseError, ValidationError or FormatError."""

    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config_soup())
    def test_only_typed_errors(self, tmp_path, text):
        try:
            cfg = parse_config_text(text, base_dir=str(tmp_path))
            build_model_spec(cfg.model)
            build_optimizer(cfg.optimizer)
        except (ParseError, ValidationError, FormatError):
            pass
