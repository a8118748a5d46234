"""Locally trained neural networks over arbitrary directed graphs.

Neurons are linear+ReLU blocks with their own forward-forward goodness
objective and optimizer; synapses carry outputs between neurons by
concatenation, so any digraph (including cyclic ones) is a valid model.
"""

from .data import Dataset, FusedBatch, FusionMode, fuse_inputs, synth_blobs
from .graph import GeneratorSpec, Topology, generate, predecessors
from .network import (CyclicNet, build_network, load_checkpoint, predict,
                      propagate_step, save_checkpoint, train_iteration)
from .neuron import NeuronParams, ff_loss_and_grad, goodness, neuron_forward
from .numerics import AdamState, adam_step, make_rng, softmax_stable
from .training import (BPChainMLP, Metrics, TrainConfig, bp_chain_baseline,
                       evaluate, train_loop)

__all__ = [
    "AdamState", "BPChainMLP", "CyclicNet", "Dataset", "FusedBatch",
    "FusionMode", "GeneratorSpec", "Metrics", "NeuronParams", "Topology",
    "TrainConfig", "adam_step", "bp_chain_baseline", "build_network",
    "evaluate", "ff_loss_and_grad", "fuse_inputs", "generate", "goodness",
    "load_checkpoint", "make_rng", "neuron_forward", "predecessors",
    "predict", "propagate_step", "save_checkpoint", "softmax_stable",
    "synth_blobs", "train_iteration", "train_loop",
]
