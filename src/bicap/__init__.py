"""Bi-directional recurrent captioning.

One recurrent model that both generates sentences from a static visual
feature vector and reconstructs that feature vector from the words of a
sentence, plus its training loop, generation/retrieval protocols and
evaluation metrics.
"""

from .corpus import (ClassedVocabulary, Dataset, build_vocab, encode,
                     generate_synthetic, load_dataset, tokenize)
from .inference import GenConfig, generate, rank_retrieval
from .metrics import bleu, corpus_bleu, perplexity
from .model import (ModelDims, ModelParams, init_params, load_checkpoint,
                    reset_state, save_checkpoint, sentence_loss, step,
                    word_distribution)
from .numkit import SeededRng
from .training import TrainConfig, grad_check, train

__all__ = [
    "ClassedVocabulary", "Dataset", "build_vocab", "encode",
    "generate_synthetic", "load_dataset", "tokenize",
    "GenConfig", "generate", "rank_retrieval",
    "bleu", "corpus_bleu", "perplexity",
    "ModelDims", "ModelParams", "init_params", "load_checkpoint",
    "reset_state", "save_checkpoint", "sentence_loss", "step",
    "word_distribution",
    "SeededRng",
    "TrainConfig", "grad_check", "train",
]
__version__ = "0.1.0"
