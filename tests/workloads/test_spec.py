"""WorkloadSpec: canonicalization, validation, and the hypothesis-driven
JSON round-trip property (``from_dict(json(as_dict(spec))) == spec``)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import APP_NAMES, app_entry
from repro.workloads.shapes import ConstantShape, DiurnalShape, FlashCrowd
from repro.workloads.spec import MAX_UNIFORM_UNIVERSE, WorkloadSpec

# -- strategies ------------------------------------------------------------

finite = dict(allow_nan=False, allow_infinity=False)

shapes_st = st.lists(
    st.one_of(
        st.builds(
            ConstantShape,
            level=st.floats(0.1, 5.0, **finite),
        ),
        st.builds(
            DiurnalShape,
            period=st.floats(1.0, 120.0, **finite),
            amplitude=st.floats(0.0, 0.95, **finite),
            phase=st.floats(-10.0, 10.0, **finite),
        ),
        st.builds(
            FlashCrowd,
            at=st.floats(0.0, 50.0, **finite),
            duration=st.floats(0.5, 20.0, **finite),
            multiplier=st.floats(0.5, 8.0, **finite),
        ),
    ),
    max_size=3,
)


@st.composite
def specs(draw):
    category = draw(st.sampled_from(APP_NAMES))
    ops = [op for op, _ in app_entry(category).ops]
    knobs = sorted(app_entry(category).params)
    mix_ops = draw(st.lists(st.sampled_from(ops), unique=True, max_size=3))
    mix = tuple(
        (op, draw(st.floats(0.1, 5.0, **finite))) for op in mix_ops
    )
    param_knobs = draw(
        st.lists(st.sampled_from(knobs), unique=True, max_size=2)
    )
    params = tuple(
        (knob, draw(st.floats(1.0, 50.0, **finite)))
        for knob in param_knobs
    )
    lo = draw(st.floats(0.0, 1.0, **finite))
    hi = lo + draw(st.floats(0.0, 1.0, **finite))
    zipf = draw(st.one_of(st.just(0.0), st.floats(0.1, 2.0, **finite)))
    universe = draw(
        st.integers(1, MAX_UNIFORM_UNIVERSE) if zipf == 0.0
        else st.integers(1, 10_000_000)
    )
    return WorkloadSpec(
        name=draw(st.text(min_size=1, max_size=20)),
        category=category,
        seed=draw(st.integers(0, 2**32)),
        duration=draw(st.floats(1.0, 600.0, **finite)),
        n_nodes=draw(st.integers(1, 8)),
        rate=draw(st.floats(0.01, 100.0, **finite)),
        universe=universe,
        zipf=zipf,
        shapes=tuple(draw(shapes_st)),
        mix=mix,
        params=params,
        delay=(lo, hi),
        window=draw(st.integers(1, 64)),
        notes=draw(st.text(max_size=30)),
    )


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(spec=specs())
    def test_json_round_trip_is_exact(self, spec):
        rebuilt = WorkloadSpec.from_dict(
            json.loads(json.dumps(spec.as_dict()))
        )
        assert rebuilt == spec
        assert rebuilt.as_dict() == spec.as_dict()

    @settings(max_examples=50, deadline=None)
    @given(spec=specs())
    def test_round_trip_preserves_stream_inputs(self, spec):
        rebuilt = WorkloadSpec.from_dict(spec.as_dict())
        assert rebuilt.op_weights() == spec.op_weights()
        assert rebuilt.param_values() == spec.param_values()
        assert hash(rebuilt) == hash(spec)


class TestCanonicalization:
    def test_mix_and_params_order_insensitive(self):
        a = WorkloadSpec(
            name="x", category="banking",
            mix=(("withdraw", 1.0), ("deposit", 2.0)),
        )
        b = WorkloadSpec(
            name="x", category="banking",
            mix=[("deposit", 2.0), ("withdraw", 1.0)],
        )
        assert a == b
        assert hash(a) == hash(b)

    def test_notes_do_not_affect_equality(self):
        a = WorkloadSpec(name="x", category="counter", notes="v1")
        b = WorkloadSpec(name="x", category="counter", notes="v2")
        assert a == b

    def test_op_weights_keep_catalog_order(self):
        spec = WorkloadSpec(
            name="x", category="airline", mix=(("cancel", 9.0),)
        )
        assert [op for op, _ in spec.op_weights()] == [
            "move_up", "move_down", "request", "cancel"
        ]
        assert dict(spec.op_weights())["cancel"] == 9.0


class TestValidation:
    def test_unknown_category(self):
        with pytest.raises(ValueError, match="unknown category"):
            WorkloadSpec(name="x", category="blockchain")

    def test_unknown_mix_op(self):
        with pytest.raises(ValueError, match="unknown op"):
            WorkloadSpec(name="x", category="counter", mix=(("mint", 1.0),))

    def test_unknown_param(self):
        with pytest.raises(ValueError, match="unknown param"):
            WorkloadSpec(
                name="x", category="counter", params=(("fee", 1.0),)
            )

    def test_zero_weight_mix_rejected(self):
        with pytest.raises(ValueError, match="no positive weight"):
            WorkloadSpec(
                name="x", category="counter",
                mix=(("allocate", 0.0), ("release", 0.0)),
            )

    def test_uniform_universe_capped(self):
        with pytest.raises(ValueError, match="uniform"):
            WorkloadSpec(
                name="x", category="airline",
                zipf=0.0, universe=MAX_UNIFORM_UNIVERSE + 1,
            )
        # the same universe is fine under Zipf sampling.
        WorkloadSpec(
            name="x", category="airline",
            zipf=1.1, universe=MAX_UNIFORM_UNIVERSE + 1,
        )

    @pytest.mark.parametrize("kwargs", [
        dict(name=""),
        dict(duration=0.0),
        dict(rate=0.0),
        dict(n_nodes=0),
        dict(universe=0),
        dict(zipf=-0.5),
        dict(window=0),
        dict(delay=(0.5, 0.1)),
        dict(delay=(-0.1, 0.5)),
    ])
    def test_scalar_bounds(self, kwargs):
        base = dict(name="x", category="airline")
        base.update(kwargs)
        with pytest.raises(ValueError):
            WorkloadSpec(**base)
