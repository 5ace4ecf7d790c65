import numpy as np
import pytest
from hypothesis import settings

from dualora import autodiff as ad
from dualora import backbone as bb
from dualora import classifier as clf
from dualora import model as mdl
from dualora import numerics as nm
from dualora import streams as st
from dualora import trainer as tr

# derandomized and without an example database, property tests draw the same
# examples on every run and leave nothing behind
settings.register_profile(
    "dualora", derandomize=True, database=None, deadline=None, max_examples=30
)
settings.load_profile("dualora")

MICRO_BACKBONE = dict(num_blocks=2, width=16, heads=2, image_side=8, patch_side=4, channels=1)
MICRO_TRAIN = dict(rank=2, position_l=1, epochs=3, batch_size=4, learning_rate=3e-4)


def build_micro(seed=0, *, num_classes=4, num_tasks=2, train_per_class=6, test_per_class=3,
                noise_std=0.05, backbone_overrides=None, train_overrides=None):
    """Small 2-block setup shared by the slower integration-style tests."""
    bcfg = bb.BackboneConfig(**{**MICRO_BACKBONE, **(backbone_overrides or {})})
    tcfg = tr.TrainConfig(**{**MICRO_TRAIN, **(train_overrides or {})})
    dataset = st.gen_synthetic(
        num_classes, train_per_class, test_per_class,
        bcfg.image_side, bcfg.channels, noise_std, nm.make_rng(seed),
    )
    stream = st.split_tasks(dataset, num_tasks)
    backbone = bb.init_backbone(bcfg, nm.make_rng(seed + 1))
    model = mdl.build_model(
        backbone, tcfg.position_l, tcfg.rank, nm.make_rng(seed + 2),
        flip_positions=tcfg.flip_positions, fixed_down=tcfg.fix_b,
        shared_down_init=tcfg.shared_down_init,
    )
    return stream, backbone, model, tcfg


def project(t: ad.Tensor, c) -> ad.Tensor:
    """``sum(c * t)`` as one node: a scalar whose gradient with respect to
    ``t`` is ``c``, which reduces any node to a scalar for a gradient check."""
    c = np.broadcast_to(np.asarray(c, dtype=np.float64), t.value.shape)
    return ad.node((c * t.value).sum(), (t,), lambda g, needs: (g * c,))


@pytest.fixture
def micro():
    return build_micro()


@pytest.fixture
def adapter_blocks(monkeypatch):
    """Block indices of every ``block_forward`` call that carries adapter
    deltas, in call order; one call covers every image of its batch."""
    calls = []
    block_forward = bb.block_forward

    def recording(backbone, state, i, deltas=None, **kwargs):
        if deltas:
            calls.append(i)
        return block_forward(backbone, state, i, deltas, **kwargs)

    monkeypatch.setattr(bb, "block_forward", recording)
    return calls


@pytest.fixture(scope="session")
def trained_micro():
    """A completed 2-task micro run; treat as read-only."""
    stream, backbone, model, tcfg = build_micro()
    store = clf.PrototypeStore()
    logs = [
        tr.train_task(model, store, task, tcfg, nm.make_rng(100 + task.task_id))
        for task in stream.tasks
    ]
    return dict(stream=stream, backbone=backbone, model=model, store=store, cfg=tcfg, logs=logs)
